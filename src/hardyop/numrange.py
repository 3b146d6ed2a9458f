"""Numerical range of finite compressions: Rayleigh-quotient sampling, the
support-function boundary by a certified subspace sweep over the Hermitian
parts of e^{-i theta} M (Johnson's method, SIAM J. Numer. Anal. 15, 1978, with
the subspace projection of Kressner, Lu and Vandereycken, SIMAX 39, 2018),
numerical radius, and comparison against closed-form elliptical targets.

For convex compact sets the Hausdorff distance equals the sup-norm distance
of the support functions, which is what ellipse_compare reports.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .closedform import EllipseDisk, recognize_ellipse
from .compop import as_opmatrix, comp_matrix, require_schedule

CERT_TOL = 1e-12  # certificate tolerance: eps = CERT_TOL max(1, |value|)


@dataclass(frozen=True)
class NRBoundary:
    """Support values and boundary points of a compression's numerical range."""

    thetas: np.ndarray        # angle grid
    support_vals: np.ndarray  # h(theta) = lambda_max(Re(e^{-i theta} A))
    boundary_pts: np.ndarray  # Rayleigh quotients of the top eigenvectors
    radius: float             # largest certified h: grid max, slope-search refined
    dense_solves: int         # dense steps (eigvalsh, shifted solves), radius search included
    radius_evals: int         # certified evaluations made by the radius search


def sample_w(A, count: int, seed: int) -> np.ndarray:
    """Rayleigh quotients <Av, v> for seeded random complex unit vectors."""
    if count < 1:
        raise ValueError("count must be >= 1")
    M = as_opmatrix(A).entries
    # Box-Muller on 53-bit uniforms in (0, 1] from the stdlib: numpy.random stays unloaded
    bits = np.frombuffer(random.Random(seed).randbytes(16 * count * M.shape[0]), dtype="<u8")
    u = ((bits >> np.uint64(11)) + 1.0).reshape(2, count, -1) * 2.0 ** -53
    V = np.sqrt(-2.0 * np.log(u[0])) * np.exp(2j * np.pi * u[1])
    V /= np.linalg.norm(V, axis=1)[:, None]
    return np.einsum("ij,ij->i", V.conj(), V @ M.T)


def _certified(G: np.ndarray) -> bool:
    """True when a Cholesky factorization shows the Hermitian G positive
    definite.  A failed factorization is not a certificate, and neither is a
    non-finite one: LAPACK passes a NaN pivot without reporting an error."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(L.diagonal()).all())


class _SupportSweep:
    """Certified top eigenpairs of H(w) = (wM + conj(w) M^H)/2, the Hermitian
    part of wM for w = e^{-i theta} (theta + pi is -w), by Rayleigh-Ritz on one
    growing basis V shared by all angles.  The sweep holds M and M^H only.

    A Ritz pair (mu, x) is accepted when its full-space residual is at most
    eps = CERT_TOL max(1, |mu|) and a Cholesky factorization of
    (mu + eps) I - H(w), formed from M and M^H, succeeds.  A Ritz value is a
    Rayleigh quotient, so mu <= lambda_max, and the factorization proves
    lambda_max < mu + eps: each accepted value is the top eigenvalue within
    eps.  A NaN fails both tests.  Where a pair fails, one dense step at H(w)
    supplies the top pairs of H and -H: eigvalsh gives the extreme eigenvalues,
    and inverse iteration with shifts eps beyond them gives their two vectors
    and their first-order derivatives in theta, with no eigenvector matrix.
    Vectors and derivatives join the basis (re-orthonormalized by QR), so that
    the basis also serves the nearby angles.  A Ritz pair interpolates the
    eigenvector curve between angles the basis has solved far better than it
    extrapolates past them, so callers visit their angles coarse to fine.
    Each boundary point is x^H M x; dense_solves counts the dense steps.
    """

    def __init__(self, M: np.ndarray):
        # one layout: M^H as a transposed view slowed the certificates ~30%
        self.M = np.asfortranarray(M)
        self.Mh = np.conjugate(self.M.T, order="F")
        self.V = np.zeros((M.shape[0], 0), dtype=complex)  # projected at the first dense step
        # the inverse iteration's fixed start: a chirp, with none of the
        # symmetries (constant, reflected, alternating) that make a structured
        # matrix's eigenvector orthogonal to a simpler start
        self._start = np.exp(1j * np.arange(M.shape[0]) ** 2.0)
        self.dense_solves = 0

    def _project(self) -> None:
        self.MV, self.MhV = self.M @ self.V, self.Mh @ self.V
        self.P = self.V.conj().T @ self.MV

    def _accept(self, w: complex, mu: float, y: np.ndarray):
        """(mu, boundary point) if the Ritz pair is a certified top pair of H(w)."""
        x, Mx = self.V @ y, self.MV @ y
        eps = CERT_TOL * max(1.0, abs(mu))
        if not np.linalg.norm((w * Mx + w.conjugate() * (self.MhV @ y)) / 2.0 - mu * x) <= eps:
            return None
        G = self.M * (-w / 2.0)
        G -= self.Mh * (w.conjugate() / 2.0)
        G.flat[::G.shape[0] + 1] += mu + eps
        if not _certified(G):
            return None
        return mu, complex(np.vdot(x, Mx))

    def extremes(self, theta: float, opposite: bool):
        """Top pairs (h, boundary point) of H(theta) and, if opposite, of
        H(theta + pi) = -H(theta) (else None)."""
        w = complex(np.cos(theta), -np.sin(theta))
        if self.V.shape[1]:
            B = w * self.P
            mus, Y = np.linalg.eigh((B + B.conj().T) / 2.0)
            top = self._accept(w, mus[-1], Y[:, -1])
            opp = self._accept(-w, -mus[0], Y[:, 0]) if opposite and top is not None else None
            if top is not None and (opp is not None or not opposite):
                return top, opp
        # -H, then sigma_top I - H and sigma_bot I - H, in one (2, N, N) block:
        # glibc raises its mmap and trim thresholds to the largest mmapped block
        # freed, and a 2N^2 block keeps every later certificate's 2N^2 transient
        # (Cholesky copy and factor) on the heap.  Two N x N systems in sequence
        # left the thresholds at N^2, and each certificate was trimmed and
        # faulted in again (about 173,500 minor faults on a 720-angle N=256
        # boundary, against about 2,560 with the block)
        K = np.empty((2,) + self.M.shape, dtype=complex)
        np.multiply(self.M, -w / 2.0, out=K[0])
        K[0] -= np.multiply(self.Mh, w.conjugate() / 2.0, out=K[1])  # -H
        lo, hi = -np.linalg.eigvalsh(K[0])[[-1, 0]]
        self.dense_solves += 1
        K[1] = K[0]
        K.reshape(2, -1)[:, ::K.shape[1] + 1] += [[hi + CERT_TOL * max(1.0, abs(hi))],
                                                  [lo - CERT_TOL * max(1.0, abs(lo))]]
        # inverse iteration (Parlett, The Symmetric Eigenvalue Problem, 1998):
        # sigma lies eps beyond lambda, so one solve from the fixed start gives
        # x within O(eps/gap), and a second refines x and gives the derivative
        # x' = (lambda I - H)^+ H'x, H' = H(-iw) = (wM - conj(w) M^H)/2i, as
        # (sigma I - H)^{-1} (I - xx^H) H'x less its x component, within
        # O(eps/gap) of it; gap is lambda's distance to the rest of the spectrum
        X = np.linalg.solve(K, self._start[None, :, None])[:, :, 0].T
        X /= np.linalg.norm(X, axis=0)
        W = (w * (self.M @ X) - w.conjugate() * (self.Mh @ X)) / 2.0j
        W -= X * np.einsum("ij,ij->j", X.conj(), W)
        Y = np.linalg.solve(K, np.stack([X.T, W.T], axis=2))
        ends = Y[:, :, 0].T / np.linalg.norm(Y[:, :, 0], axis=1)
        D = Y[:, :, 1].T
        D -= ends * np.einsum("ij,ij->j", ends.conj(), D)
        self.V = np.linalg.qr(np.hstack([self.V, ends, D]))[0]
        self._project()
        top, opp = np.einsum("ij,ij->j", ends.conj(), self.M @ ends)
        return (hi, complex(top)), (-lo, complex(opp)) if opposite else None


def _slope(theta: float, pt: complex) -> float:
    """h'(theta) = Im(e^{-i theta} p(theta)) for the boundary point p(theta) of
    the top eigenvector (Hellmann-Feynman: h' = x^H H'(theta) x)."""
    return float((np.exp(-1j * theta) * pt).imag)


def _radius(sweep: _SupportSweep, h: np.ndarray, pts: np.ndarray,
            mirror: bool) -> tuple[float, int]:
    """Numerical radius as the largest certified support value, and the count
    of certified evaluations made to find it.

    The slopes at the grid maximum and its neighbours come from their boundary
    points.  Where the slope changes sign over a neighbouring grid step, a
    safeguarded secant (Illinois) on h' refines the peak to 1e-10 in theta.
    A slope within the certificate's eps of zero counts as zero: with no sign
    change (h flat, or h' = 0 at the grid maximum) the grid maximum stands.
    With mirror set, a step in a mirrored quarter is replaced by its
    reflection theta -> -theta (h is even), whose angles the basis has solved.
    """
    grid = h.size
    step = 2.0 * np.pi / grid
    j = int(np.argmax(h))
    best = float(h[j])
    eps = CERT_TOL * max(1.0, abs(best))

    def grid_slope(k: int) -> float:
        return _slope(k * step, pts[k % grid])

    lo = j if grid_slope(j) > 0 else j - 1  # h rising at j: search after it, else before
    if mirror and (lo % grid) // (grid // 4) in (1, 3):
        lo = grid - 1 - lo % grid
    a, b = lo * step, (lo + 1) * step
    fa, fb = grid_slope(lo), grid_slope(lo + 1)
    if not (fa > eps and fb < -eps):
        return best, 0
    evals, side = 0, 0
    while b - a > 1e-10:
        t = b - fb * (b - a) / (fb - fa)
        if not a < t < b:
            t = 0.5 * (a + b)
        (v, pt), _ = sweep.extremes(t, False)
        evals += 1
        best = max(best, float(v))
        f = _slope(t, pt)
        if abs(f) <= eps:
            break
        if f > 0:
            a, fa = t, f
            if side > 0:
                fb /= 2.0
            side = 1
        else:
            b, fb = t, f
            if side < 0:
                fa /= 2.0
            side = -1
    return best, evals


def _coarse_to_fine(n: int) -> list[int]:
    """range(n) coarse to fine: both ends, then the midpoint of every gap left,
    level by level (n = 17: 0, 16, 8, 4, 12, 2, 6, 10, 14, 1, 3, ...)."""
    order, gaps = [0, n - 1][:n], deque([(0, n - 1)])
    while gaps:
        a, b = gaps.popleft()
        if b - a > 1:
            m = (a + b) // 2
            order.append(m)
            gaps += [(a, m), (m, b)]
    return order


def boundary(A, grid: int = 720) -> NRBoundary:
    """Support-function boundary of the numerical range of a compression.

    For each grid angle the top eigenpair of H(theta), the Hermitian part of
    e^{-i theta} A, gives the support value and a boundary point (the Rayleigh
    quotient of the eigenvector), each certified within CERT_TOL max(1, |h|) by
    one subspace sweep (_SupportSweep).  The solved angles are visited coarse
    to fine (_coarse_to_fine): the two ends of the solved arc, then midpoints
    level by level, so each later Ritz pair interpolates between solved
    angles.  An even grid is solved at half cost: the sweep gives the pair at
    theta + pi as the top pair of H(theta + pi) = -H(theta), stored as it is.
    A real A on a grid divisible by 4 solves only theta in [0, pi/2] and
    mirrors the rest: H(-theta) = conj(H(theta)), so h(-theta) = h(theta) and
    the boundary point at -theta is the conjugate of that at theta.  An
    OpMatrix without phases, or with col = conj(row) (as for
    s(z) = conj(mu) psi(mu z) with psi real), is unitarily similar to its
    stored matrix, so that matrix is swept, mirrored the same way when real;
    other phases are multiplied into the entries first.  The numerical radius
    is the largest certified value seen by a slope search around the grid
    maximum (_radius): the slopes h'(theta) = Im(e^{-i theta} p(theta)) come
    free with the boundary points, and each search step is one more
    certified top value, so the radius is a certified lower bound of the
    compression's numerical radius.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")
    A = as_opmatrix(A)
    M = A.matrix if A.row is None or np.array_equal(A.col, A.row.conj()) else A.entries
    sweep = _SupportSweep(M)
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    h = np.empty(grid)
    pts = np.empty(grid, dtype=complex)
    half = grid // 2 if grid % 2 == 0 else grid
    mirror = np.isrealobj(M) and grid % 4 == 0
    for j in _coarse_to_fine(grid // 4 + 1 if mirror else half):
        top, opposite = sweep.extremes(thetas[j], half != grid)
        h[j], pts[j] = top
        if opposite is not None:
            h[j + half], pts[j + half] = opposite
    if mirror:  # -J mirrors J in both half-turns: theta -> -theta
        J = np.r_[1:grid // 4, half + 1:half + grid // 4]
        h[-J], pts[-J] = h[J], pts[J].conj()
    radius, evals = _radius(sweep, h, pts, mirror)
    return NRBoundary(thetas=thetas, support_vals=h, boundary_pts=pts, radius=radius,
                      dense_solves=sweep.dense_solves, radius_evals=evals)


# ---------------------------------------------------------------------------
# comparison against an ellipse


@dataclass(frozen=True)
class EllipseComparison:
    contained: bool           # support never exceeds the ellipse beyond tolerance
    hausdorff: float          # sup |h_range - h_ellipse| (exact for convex sets)
    max_violation: float      # max excess of the range's support over the ellipse's
    interior_margin: float    # min focal margin of the boundary points; > 0 inside


def ellipse_compare(nr: NRBoundary, e: EllipseDisk) -> EllipseComparison:
    """Containment (support values at most 1e-8 above the ellipse's),
    Hausdorff gap and interior margin between a computed numerical-range
    boundary and a closed-form elliptical disk.  The interior margin is the
    smallest focal margin (EllipseDisk.focal_margin) over the boundary points,
    the range's extreme points at the grid angles: positive when all of them
    lie in the open disk."""
    he = e.support(nr.thetas)
    diff = nr.support_vals - he
    max_violation = float(diff.max())
    return EllipseComparison(
        contained=max_violation <= 1e-8,
        hausdorff=float(np.abs(diff).max()),
        max_violation=max_violation,
        interior_margin=float(e.focal_margin(nr.boundary_pts).min()),
    )


def range_schedule(s, dims, grid: int = 720) -> tuple[EllipseDisk | None, dict]:
    """(ellipse, {N: (boundary, comparison)}) for C_s over a strictly increasing
    schedule: recognize_ellipse(s), which validates s, or None, and then every
    comparison is None; one build at the largest N, sliced (nested bases)."""
    ellipse = recognize_ellipse(s)
    dims = require_schedule(dims)
    A = comp_matrix(s, dims[-1])
    nrs = {N: boundary(A.leading(N), grid=grid) for N in dims}
    return ellipse, {N: (nr, None if ellipse is None else ellipse_compare(nr, ellipse))
                     for N, nr in nrs.items()}
