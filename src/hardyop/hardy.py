"""Hardy-space metrics on disk symbols: coefficient norms and inner products,
boundary p-norms by circle quadrature, the exact inner-function test,
reproducing kernels, and the Poisson kernel.

All boundary integrals use the normalized measure dm = dtheta / 2pi, so the
uniform trapezoid rule on a periodic grid reduces to the grid mean.  Every
grid is sampled by symbolic.circle_values and starts at the symbol's
grid_size; the sup norm is the refined sup cached by validate_selfmap.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import PreconditionError
from .symbolic import CoeffVec, Symbol, circle_values, require_selfmap, trim

MAX_GRID = 1 << 20          # largest quadrature grid
BLOCK = 1 << 15             # largest grid sampled at once
INNER_COEFF_TOL = 1e-10     # exact Blaschke test: max coefficient residual


@dataclass(frozen=True)
class PNormResult:
    """A boundary p-norm value together with the quadrature effort used."""

    p: float
    value: float
    grid_size: int
    est_error: float


@dataclass(frozen=True)
class InnerVerdict:
    is_inner: bool
    margin: float       # max coefficient residual of the modulus identity


def h2_norm(c: CoeffVec) -> float:
    """Hilbert norm sqrt(sum |c_n|^2) of a coefficient vector."""
    return float(np.linalg.norm(np.asarray(c, dtype=complex)))


def h2_inner(f: CoeffVec, g: CoeffVec) -> complex:
    """Inner product sum f_n conj(g_n); shorter vector is zero-padded."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    n = min(f.size, g.size)
    return complex(np.dot(f[:n], g[:n].conj()))


def powers(c: CoeffVec, n_max: int, length: int) -> Iterator[CoeffVec]:
    """Yield c, c^2, ..., c^n_max, each truncated to its first `length`
    coefficients.  Coefficient j of c^n reads only coefficients 0..j of
    c^(n-1), so truncating every step leaves the kept coefficients exact.
    """
    p = np.ones(1, dtype=complex)
    for _ in range(n_max):
        p = np.convolve(p, c)[:length]
        yield p


def kernel_coeffs(p: complex, N: int) -> CoeffVec:
    """Taylor coefficients conj(p)^n of the reproducing kernel at p."""
    p = complex(p)
    if abs(p) >= 1:
        raise PreconditionError(f"kernel point must lie in the open disk, got |p|={abs(p):.6g}")
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.conj(p) ** np.arange(N)


def kernel_distance(p1: complex, p2: complex) -> float:
    """Distance between the reproducing kernels at p1 and p2 (closed form)."""
    p1, p2 = complex(p1), complex(p2)
    for p in (p1, p2):
        if abs(p) >= 1:
            raise PreconditionError(f"kernel point must lie in the open disk, got |p|={abs(p):.6g}")
    val = (
        1.0 / (1.0 - abs(p1) ** 2)
        + 1.0 / (1.0 - abs(p2) ** 2)
        - 2.0 * (1.0 / (1.0 - p1.conjugate() * p2)).real
    )
    return math.sqrt(max(val, 0.0))


def poisson(z: complex, u: complex) -> float:
    """Poisson kernel Re (u+z)/(u-z) for |z| < 1 and unimodular u."""
    z, u = complex(z), complex(u)
    if abs(z) >= 1:
        raise PreconditionError(f"Poisson kernel needs |z| < 1, got {abs(z):.6g}")
    if abs(abs(u) - 1.0) > 1e-9:
        raise PreconditionError(f"Poisson kernel needs |u| = 1, got {abs(u):.6g}")
    return ((u + z) / (u - z)).real


# ---------------------------------------------------------------------------
# p-norms


def _grid_mean_pow(s: Symbol, p: float, K: int, scale: float) -> float:
    """Mean of (|phi| / scale)^p over the K-point grid, in interleaved blocks
    of at most BLOCK points."""
    B = min(K, BLOCK)
    total = 0.0
    for j in range(K // B):
        vals = np.abs(circle_values(s, B, shift=2.0 * np.pi * j / K)) / scale
        total += float(np.sum(vals ** p))
    return total / K


def p_norm(s: Symbol, p: float, tol: float = 1e-10) -> PNormResult:
    """Boundary p-norm (||phi||_p, p >= 2, p = inf allowed).

    p = inf reads the refined sup cached by validate_selfmap (est_error: its
    gap to the largest grid sample).  Finite p: sup * (mean (|phi|/sup)^p)^(1/p),
    which cannot underflow, by trapezoid quadrature on grids doubling from the
    symbol's grid_size until two successive values agree within tol; at the
    2^20 grid the last estimate is returned with its refinement delta.
    """
    if p != math.inf and p < 2:
        raise PreconditionError(f"p must be >= 2 (or inf), got {p}")
    d = s.diagnostics()
    sup, K = d.boundary_sup, d.grid_size
    if p == math.inf:
        return PNormResult(p=math.inf, value=sup, grid_size=K,
                           est_error=abs(sup - d.grid_sup))
    if sup == 0.0:
        return PNormResult(p=float(p), value=0.0, grid_size=K, est_error=0.0)
    value, delta = sup * _grid_mean_pow(s, p, K, sup) ** (1.0 / p), math.inf
    while K < MAX_GRID and delta > tol:
        K *= 2
        prev, value = value, sup * _grid_mean_pow(s, p, K, sup) ** (1.0 / p)
        delta = abs(value - prev)
    return PNormResult(p=float(p), value=value, grid_size=K, est_error=delta)


# ---------------------------------------------------------------------------
# inner functions


def reflect(q: CoeffVec) -> CoeffVec:
    """Reflected polynomial z^deg(q) conj(q)(1/conj(z)): conjugate-reversed coefficients."""
    q = trim(q)
    return np.conj(q[::-1]).copy()


def _unimodular_products(s: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """The two polynomials whose equality characterizes |num| = |den| on the circle.

    With n = num, d = den:  n(w) conj(n(w)) = d(w) conj(d(w)) for |w| = 1
    is equivalent to  n * reflect(n) * z^deg(d)  ==  d * reflect(d) * z^deg(n).
    """
    num, den = trim(s.num), trim(s.den)
    pn = npp.polymul(num, reflect(num))
    pd = npp.polymul(den, reflect(den))
    n = max(pn.size + den.size, pd.size + num.size) - 1  # both shifted, then padded to n
    pn = np.pad(pn, (den.size - 1, n - pn.size - den.size + 1))
    pd = np.pad(pd, (num.size - 1, n - pd.size - num.size + 1))
    return pn, pd


def is_inner(s: Symbol) -> InnerVerdict:
    """Whether the symbol has unimodular boundary values.

    Decided exactly via the polynomial identity above (a rational selfmap is
    inner iff it is a finite Blaschke product); bit-deterministic.
    """
    require_selfmap(s)
    pn, pd = _unimodular_products(s)
    margin = float(np.max(np.abs(pn - pd)))
    return InnerVerdict(is_inner=margin <= INNER_COEFF_TOL, margin=margin)


def inner_multiple(s: Symbol) -> tuple[bool, float]:
    """Whether s = lambda * (inner function) for a scalar lambda; returns |lambda|.

    Decided exactly: s has constant boundary modulus c iff the unimodular-test
    polynomials are proportional with ratio c^2.
    """
    if np.all(s.num == 0):
        return False, 0.0
    pn, pd = _unimodular_products(s)
    j = int(np.argmax(np.abs(pd)))
    ratio = pn[j] / pd[j]
    if abs(ratio.imag) > INNER_COEFF_TOL or ratio.real <= 0:
        return False, 0.0
    c2 = ratio.real
    resid = float(np.max(np.abs(pn - c2 * pd)))
    if resid <= INNER_COEFF_TOL * max(1.0, c2):
        return True, math.sqrt(c2)
    return False, 0.0
