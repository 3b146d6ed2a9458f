"""Reference geometry for the numerical-range tests: an ellipse's contact
points and the Hausdorff distance between closed polylines, independent of
the support-function comparison the library makes."""

import cmath

import numpy as np


def contact_points(e, thetas) -> np.ndarray:
    """Boundary points of the EllipseDisk e attaining its support in each direction."""
    th = np.asarray(thetas, dtype=float)
    c, psi = e.center, e.axis_angle
    a, b = e.semi_major, e.semi_minor
    phi = th - psi
    if b == 0.0:
        return c + cmath.exp(1j * psi) * a * np.sign(np.cos(phi))
    radial = np.sqrt((a * np.cos(phi)) ** 2 + (b * np.sin(phi)) ** 2)
    return c + np.exp(1j * psi) * (a**2 * np.cos(phi) + 1j * b**2 * np.sin(phi)) / radial


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
