"""Hardy-space metrics on disk symbols: coefficient norms and inner products,
boundary p-norms by circle quadrature, the exact inner-function test, and the
closed-form distance between reproducing kernels.

All boundary integrals use the normalized measure dm = dtheta / 2pi, so the
uniform trapezoid rule on a periodic grid reduces to the grid mean.  Every
grid starts at the symbol's grid_size.  p_norm reads its unshifted blocks of
at most BLOCK points from symbolic.boundary_moduli; the shifted blocks of
larger grids are sampled by circle_values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .symbolic import (
    COEFF_TOL,
    CoeffVec,
    Symbol,
    boundary_moduli,
    circle_values,
    modulus_products,
    poly_eval,
    poly_product,
    ratio,
    validate_selfmap,
)

MAX_GRID = 1 << 20          # largest quadrature grid
BLOCK = 1 << 15             # largest grid sampled at once


@dataclass(frozen=True)
class PNormResult:
    """A boundary p-norm value together with the quadrature effort used."""

    value: float
    grid_size: int
    est_error: float


@dataclass(frozen=True)
class InnerVerdict:
    is_inner: bool
    margin: float       # max coefficient residual of the modulus products


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
    coefficients by symbolic.poly_product.  Coefficient j of c^n reads only
    coefficients 0..j of c^(n-1), so truncating every step leaves the kept
    coefficients exact.  The product adds one shifted copy of one factor per
    nonzero term of the sparser one, so a sparse c (0.5 z + 0.5 z^4096)
    costs O(length) per power, not O(length^2).
    """
    p = np.ones(1, dtype=complex)
    for _ in range(n_max):
        p = poly_product(c, p, length)
        yield p


def kernel_distance(p1: complex, p2: complex) -> float:
    """Distance between the reproducing kernels at p1 and p2 (closed form)."""
    p1, p2 = complex(p1), complex(p2)
    for p in (p1, p2):
        if not abs(p) < 1:  # NaN too
            raise PreconditionError(f"kernel point must lie in the open disk, got |p|={abs(p):.6g}")
    val = (
        1.0 / (1.0 - abs(p1) ** 2)
        + 1.0 / (1.0 - abs(p2) ** 2)
        - 2.0 * (1.0 / (1.0 - p1.conjugate() * p2)).real
    )
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# p-norms


def _grid_mean(integrand, K: int) -> float:
    """Mean of an integrand over the K-point grid, in interleaved blocks of at
    most BLOCK points; integrand(B, shift) gives its values on the B-point grid
    turned by shift, the unshifted block first."""
    B = min(K, BLOCK)
    total = 0.0
    for j in range(K // B):
        total += float(np.sum(integrand(B, 2.0 * np.pi * j / K)))
    return total / K


def _grid_ladder(value_at, K: int, tol: float) -> PNormResult:
    """value_at(K) on grids doubling from K until two successive values agree
    within tol, or the last one at MAX_GRID with its refinement delta."""
    value, delta = value_at(K), math.inf
    while K < MAX_GRID and delta > tol:
        K *= 2
        prev, value = value, value_at(K)
        delta = abs(value - prev)
    return PNormResult(value=value, grid_size=K, est_error=delta)


def p_norm(s: Symbol, p: float, tol: float = 1e-10) -> PNormResult:
    """Boundary p-norm (||phi||_p, p >= 2, p = inf allowed).

    p = inf reads the refined sup cached by validate_selfmap (est_error: its
    gap to the largest grid sample).  Finite p: sup * (mean (|phi|/sup)^p)^(1/p),
    which cannot underflow, by trapezoid quadrature on the grid ladder from the
    symbol's grid_size; each rung's unshifted block reads boundary_moduli.
    """
    if not p >= 2:  # NaN too
        raise PreconditionError(f"p must be >= 2 (or inf), got {p}")
    d = validate_selfmap(s)
    sup, K = d.boundary_sup, d.grid_size
    if p == math.inf:
        return PNormResult(value=sup, grid_size=K, est_error=abs(sup - d.grid_sup))
    if sup == 0.0:
        return PNormResult(value=0.0, grid_size=K, est_error=0.0)

    def integrand(B: int, shift: float) -> np.ndarray:
        m = boundary_moduli(s, B) if shift == 0.0 else np.abs(circle_values(s, B, shift))
        return (m / sup) ** p

    return _grid_ladder(lambda K: sup * _grid_mean(integrand, K) ** (1.0 / p), K, tol)


def pullback_h2(s: Symbol, f: CoeffVec, tol: float = 1e-10) -> PNormResult:
    """Mean of |f o phi|^2 on the circle for a polynomial f, on the grid ladder
    from phi's grid_size.  f is applied to phi's boundary values, so no composite
    symbol meets the degree cap or the pole check of den^deg(f)."""
    return _grid_ladder(lambda K: _grid_mean(
        lambda B, shift: np.abs(poly_eval(f, circle_values(s, B, shift))) ** 2, K),
        validate_selfmap(s).grid_size, tol)


# ---------------------------------------------------------------------------
# inner functions


def is_inner(s: Symbol) -> InnerVerdict:
    """Whether the symbol has unimodular boundary values.

    Decided exactly: the modulus products agree (a symbol is analytic on the
    closed disk, so it is inner iff it is a finite Blaschke product or a
    unimodular constant, which is not a selfmap); bit-deterministic.
    """
    pn, pd = modulus_products(s)
    margin = float(np.max(np.abs(pn - pd)))
    return InnerVerdict(is_inner=margin <= COEFF_TOL, margin=margin)


def inner_multiple(s: Symbol) -> tuple[bool, float]:
    """Whether s = lambda * (inner function) for a scalar lambda; returns |lambda|.

    Decided exactly: s has constant boundary modulus c > 0 iff the modulus
    products are proportional with ratio c^2.
    """
    c2 = ratio(*modulus_products(s))
    if c2 is None or abs(c2.imag) > COEFF_TOL or c2.real <= 0:
        return False, 0.0
    return True, math.sqrt(c2.real)
