"""Hardy-space metrics on disk symbols: coefficient norms and inner products,
boundary p-norms by circle quadrature, inner-function tests, reproducing
kernels, and the Poisson kernel.

All boundary integrals use the normalized measure dm = dtheta / 2pi, so the
uniform trapezoid rule on a periodic grid reduces to the grid mean.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import PreconditionError
from .symbolic import (SELFMAP_GRID, CoeffVec, Symbol, boundary_eval, circle_grid,
                       require_selfmap, trim)

BASE_GRID = 1024            # first quadrature grid; doubled until converged
MAX_GRID = 1 << 20
INNER_COEFF_TOL = 1e-10     # exact Blaschke test: max coefficient residual
INNER_NUMERIC_TOL = 1e-6    # numeric test: max boundary modulus deviation
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PNormResult:
    """A boundary p-norm value together with the quadrature effort used."""

    p: float
    value: float
    grid_size: int
    est_error: float


@dataclass(frozen=True)
class InnerVerdict:
    mode: str           # "exact" or "numeric"
    is_inner: bool
    margin: float       # coefficient residual (exact) or boundary deviation (numeric)


def h2_norm(c: CoeffVec) -> float:
    """Hilbert norm sqrt(sum |c_n|^2) of a coefficient vector."""
    return float(np.linalg.norm(np.asarray(c, dtype=complex)))


def h2_inner(f: CoeffVec, g: CoeffVec) -> complex:
    """Inner product sum f_n conj(g_n); shorter vector is zero-padded."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
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


def _grid_mean_abs_pow(s: Symbol, p: float, K: int) -> float:
    return float(np.mean(np.abs(boundary_eval(s, circle_grid(K))) ** p))


def _golden_max(f, a: float, b: float, xtol: float) -> float:
    """Golden-section maximization of f on [a, b]; returns the best value."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def sup_norm(s: Symbol, xtol: float = 1e-10) -> PNormResult:
    """Boundary sup norm: grid scan plus golden-section refinement around the
    top three grid maxima."""
    thetas = circle_grid(SELFMAP_GRID)
    vals = np.abs(boundary_eval(s, thetas))
    h = 2.0 * np.pi / SELFMAP_GRID
    grid_max = float(vals.max())
    top = np.argsort(vals)[-3:]

    def f(theta: float) -> float:
        return abs(complex(s(np.exp(1j * theta))))

    best = grid_max
    for j in top:
        t = float(thetas[j])
        best = max(best, _golden_max(f, t - h, t + h, xtol))
    return PNormResult(p=math.inf, value=best, grid_size=SELFMAP_GRID,
                       est_error=abs(best - grid_max))


def p_norm(s: Symbol, p: float, tol: float = 1e-10) -> PNormResult:
    """Boundary p-norm (||phi||_p, p >= 2, p = inf allowed).

    Finite p: trapezoid quadrature of |phi|^p on doubling grids until two
    successive values agree within tol; if the 2^20 grid is reached the last
    estimate is returned with its refinement delta in est_error.
    """
    if p != math.inf and p < 2:
        raise PreconditionError(f"p must be >= 2 (or inf), got {p}")
    if p == math.inf:
        return sup_norm(s, xtol=min(tol, 1e-10))
    K = BASE_GRID
    prev = _grid_mean_abs_pow(s, p, K) ** (1.0 / p)
    while K < MAX_GRID:
        K *= 2
        cur = _grid_mean_abs_pow(s, p, K) ** (1.0 / p)
        delta = abs(cur - prev)
        if delta <= tol:
            return PNormResult(p=float(p), value=cur, grid_size=K, est_error=delta)
        prev = cur
    return PNormResult(p=float(p), value=prev, grid_size=K, est_error=delta)


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
    pn = np.concatenate([np.zeros(den.size - 1, dtype=complex), pn])
    pd = np.concatenate([np.zeros(num.size - 1, dtype=complex), pd])
    n = max(pn.size, pd.size)
    pn = np.pad(pn, (0, n - pn.size))
    pd = np.pad(pd, (0, n - pd.size))
    return pn, pd


def is_inner(s: Symbol, mode: str = "exact") -> InnerVerdict:
    """Whether the symbol has unimodular boundary values.

    The exact mode decides via the polynomial identity above (a rational
    selfmap is inner iff it is a finite Blaschke product) and is
    bit-deterministic; the numeric mode reports the worst boundary deviation
    on a 4096-point grid.
    """
    require_selfmap(s)
    if mode == "exact":
        pn, pd = _unimodular_products(s)
        margin = float(np.max(np.abs(pn - pd)))
        return InnerVerdict(mode="exact", is_inner=margin <= INNER_COEFF_TOL, margin=margin)
    if mode == "numeric":
        vals = boundary_eval(s, circle_grid(SELFMAP_GRID))
        margin = float(np.max(np.abs(np.abs(vals) - 1.0)))
        return InnerVerdict(mode="numeric", is_inner=margin < INNER_NUMERIC_TOL, margin=margin)
    raise ValueError(f"unknown inner-test mode {mode!r}")


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
