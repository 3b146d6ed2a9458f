"""Numerical range of finite compressions: Rayleigh-quotient sampling, the
support-function boundary via Hermitian-part eigensolves, numerical radius,
and comparison against closed-form elliptical targets.

For convex compact sets the Hausdorff distance equals the sup-norm distance
of the support functions, which is what ellipse_compare reports;
polyline_hausdorff measures the same gap between boundary polylines directly
and serves as the independent reference for it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np

from .closedform import EllipseDisk
from .compop import _entries
from .symbolic import _golden_max, circle_grid


@dataclass(frozen=True)
class NRBoundary:
    """Support values and boundary points of a compression's numerical range."""

    thetas: np.ndarray        # angle grid
    support_vals: np.ndarray  # h(theta) = lambda_max(Re(e^{-i theta} A))
    boundary_pts: np.ndarray  # Rayleigh quotients of the top eigenvectors
    radius: float             # numerical radius (refined max of h)


def sample_w(A, count: int, seed: int) -> np.ndarray:
    """Rayleigh quotients <Av, v> for seeded random complex unit vectors."""
    if count < 1:
        raise ValueError("count must be >= 1")
    M = _entries(A)
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    V /= np.linalg.norm(V, axis=1)[:, None]
    return np.einsum("ij,ij->i", V.conj(), V @ M.T)


def _hermitian_part(M: np.ndarray, theta: float) -> np.ndarray:
    w = np.exp(-1j * theta)
    B = w * M
    return (B + B.conj().T) / 2.0


def _support_value(M: np.ndarray, theta: float) -> float:
    return float(np.linalg.eigvalsh(_hermitian_part(M, theta))[-1])


def boundary(A, grid: int = 720, refine_radius: bool = True) -> NRBoundary:
    """Support-function boundary of the numerical range of a compression.

    For each grid angle the top eigenpair of the Hermitian part of
    e^{-i theta} A gives the support value and a boundary point.  An even grid
    is solved at half cost: the Hermitian part at theta + pi is the negated
    one at theta, so its top eigenpair is the bottom eigenpair at theta.  A
    real A on a grid divisible by 4 solves only theta in [0, pi/2] and mirrors
    the rest: Re(e^{i theta} A) = conj(Re(e^{-i theta} A)), so h(-theta) =
    h(theta) and the boundary point at -theta is the conjugate of that at theta.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")
    M = _entries(A)
    thetas = circle_grid(grid)
    h = np.empty(grid)
    pts = np.empty(grid, dtype=complex)
    half = grid // 2 if grid % 2 == 0 else grid
    mirror = np.isrealobj(M) and grid % 4 == 0
    for j in range(grid // 4 + 1 if mirror else half):
        vals, vecs = np.linalg.eigh(_hermitian_part(M, thetas[j]))
        h[j] = vals[-1]
        vt = vecs[:, -1]
        pts[j] = vt.conj() @ (M @ vt)
        if half != grid:
            h[j + half] = -vals[0]
            vb = vecs[:, 0]
            pts[j + half] = vb.conj() @ (M @ vb)
    if mirror:
        k = np.arange(1, grid // 4)
        h[half - k] = h[half + k]
        pts[half - k] = pts[half + k].conj()
        h[grid - k] = h[k]
        pts[grid - k] = pts[k].conj()
    radius = float(h.max())
    if refine_radius:
        j = int(np.argmax(h))
        step = 2.0 * np.pi / grid
        radius = max(radius, float(_golden_max(lambda t: _support_value(M, t),
                                               thetas[j] - step, thetas[j] + step, 1e-10)))
    return NRBoundary(thetas=thetas, support_vals=h, boundary_pts=pts, radius=radius)


# ---------------------------------------------------------------------------
# comparison against an ellipse


@dataclass(frozen=True)
class EllipseComparison:
    contained: bool           # support never exceeds the ellipse beyond tolerance
    hausdorff: float          # sup |h_range - h_ellipse| (exact for convex sets)
    max_violation: float      # max excess of the range's support over the ellipse's


def _point_segment_dist(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a polyline given by segment endpoints."""
    p = points[:, None]
    a = seg_a[None, :]
    b = seg_b[None, :]
    ab = b - a
    denom = (ab.conj() * ab).real
    t = np.where(denom > 0, ((p - a).conj() * ab).real / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t * ab
    return np.abs(p - proj).min(axis=1)


def polyline_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Hausdorff distance between two closed polylines (dense, both directions)."""
    pa, pb = P, np.roll(P, -1)
    qa, qb = Q, np.roll(Q, -1)
    d1 = _point_segment_dist(P, qa, qb).max()
    d2 = _point_segment_dist(Q, pa, pb).max()
    return float(max(d1, d2))


def ellipse_compare(nr: NRBoundary, e: EllipseDisk,
                    violation_tol: float = 1e-8) -> EllipseComparison:
    """Containment and Hausdorff gap between a computed numerical-range
    boundary and a closed-form elliptical disk."""
    he = e.support(nr.thetas)
    diff = nr.support_vals - he
    max_violation = float(diff.max())
    return EllipseComparison(
        contained=max_violation <= violation_tol,
        hausdorff=float(np.abs(diff).max()),
        max_violation=max_violation,
    )


def min_boundary_distance(points: np.ndarray, e: EllipseDisk, samples: int = 4096) -> float:
    """Smallest distance from the given points to the ellipse boundary."""
    ts = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    bd = e.boundary_points(ts)
    pts = np.asarray(points, dtype=complex).ravel()
    return float(np.min(np.abs(pts[:, None] - bd[None, :])))


def write_boundary_csv(nr: NRBoundary, fh: IO[str]) -> None:
    """Boundary polyline as CSV columns theta, support, re, im."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["theta", "support", "re", "im"])
    for th, hv, pt in zip(nr.thetas, nr.support_vals, nr.boundary_pts):
        writer.writerow([f"{th:.17g}", f"{hv:.17g}", f"{pt.real:.17g}", f"{pt.imag:.17g}"])
