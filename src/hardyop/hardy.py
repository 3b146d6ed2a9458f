"""Hardy-space metrics on disk symbols: coefficient norms and inner products,
boundary p-norms by circle quadrature, the exact inner-function test, and the
closed-form distance between reproducing kernels with its open-disk check.

All boundary integrals use the normalized measure dm = dtheta / 2pi, so the
uniform trapezoid rule on a periodic grid reduces to the grid mean.  Every
ladder starts at the symbol's grid_size, and its grids nest: each rung samples
only the previous grid turned by half a step.  p_norm reads its blocks of at
most BLOCK points from symbolic.boundary_moduli, whose one stored grid per
symbol (at most BLOCK floats, 256 KB) holds validate_selfmap's scan and every
rung up to BLOCK points, so no point is sampled twice below that; larger rungs
are sampled afresh.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import PreconditionError
from .symbolic import (
    BLOCK,
    COEFF_TOL,
    CoeffVec,
    Symbol,
    boundary_moduli,
    circle_values,
    modulus_products,
    poly_eval,
    powers,
    ratio,
    validate_selfmap,
)

MAX_GRID = 1 << 20          # largest quadrature grid


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


def power_overlaps(c: CoeffVec, n_max: int) -> Iterator[complex]:
    """<c, c^n> for n = 2..n_max, one power at a time so a caller may stop early;
    each power is cut to c's length, all the overlap reads."""
    return (h2_inner(c, p) for p in islice(powers(c, n_max, len(c)), 1, None))


def require_disk(p: complex, name: str = "p") -> complex:
    """p as a complex number; PreconditionError unless it lies in the open unit disk."""
    p = complex(p)
    if not abs(p) < 1:  # NaN too
        raise PreconditionError(f"{name} must lie in the open unit disk, got |{name}|={abs(p):.6g}")
    return p


def kernel_distance(p1: complex, p2: complex) -> float:
    """Distance between the reproducing kernels at p1 and p2 (closed form)."""
    p1, p2 = require_disk(p1, "p1"), require_disk(p2, "p2")
    # 1/(1-|p1|^2) + 1/(1-|p2|^2) - 2 Re 1/(1-conj(p1) p2) cancels for nearby points;
    # |1 - conj(p1) p2|^2 = (1-|p1|^2)(1-|p2|^2) + |p1-p2|^2 turns it into a product
    s1, s2 = abs(p1) ** 2, abs(p2) ** 2
    return (abs(p1 - p2) * math.sqrt(1.0 - s1 * s2)
            / (math.sqrt((1.0 - s1) * (1.0 - s2)) * abs(1.0 - p1.conjugate() * p2)))


# ---------------------------------------------------------------------------
# p-norms


def _grid_sum(integrand, K: int, shift: float) -> float:
    """Sum of an integrand over the K-point grid turned by shift, in interleaved
    blocks of at most BLOCK points; integrand(B, shift) gives its values on the
    B-point grid turned by shift."""
    B = min(K, BLOCK)
    return sum(float(np.sum(integrand(B, shift + 2.0 * np.pi * j / K))) for j in range(K // B))


def _grid_ladder(integrand, K: int, tol: float, finish=lambda mean: mean) -> PNormResult:
    """finish(mean of the integrand) on grids doubling from K until two successive
    values agree within tol, or the last one at MAX_GRID with its refinement
    delta.  The grids nest: rung 2K's sum is rung K's plus the sum over the
    K-point grid turned by half a step, pi/K."""
    total = _grid_sum(integrand, K, 0.0)
    value, delta = finish(total / K), math.inf
    while K < MAX_GRID and delta > tol:
        total += _grid_sum(integrand, K, np.pi / K)
        K *= 2
        prev, value = value, finish(total / K)
        delta = abs(value - prev)
    return PNormResult(value=value, grid_size=K, est_error=delta)


def p_norm(s: Symbol, p: float, tol: float = 1e-10) -> PNormResult:
    """Boundary p-norm (||phi||_p, p >= 2, p = inf allowed).

    p = inf reads the refined sup cached by validate_selfmap (est_error: its
    gap to the largest grid sample).  Finite p: sup * (mean (|phi|/sup)^p)^(1/p),
    which cannot underflow, by trapezoid quadrature on the nested grid ladder
    from the symbol's grid_size; every block reads boundary_moduli.
    """
    if not p >= 2:  # NaN too
        raise PreconditionError(f"p must be >= 2 (or inf), got {p}")
    d = validate_selfmap(s)
    sup, K = d.boundary_sup, d.grid_size
    if p == math.inf:
        return PNormResult(value=sup, grid_size=K, est_error=abs(sup - d.grid_sup))
    if sup == 0.0:
        return PNormResult(value=0.0, grid_size=K, est_error=0.0)

    return _grid_ladder(lambda B, shift: (boundary_moduli(s, B, shift) / sup) ** p, K, tol,
                        lambda mean: sup * mean ** (1.0 / p))


def pullback_h2(s: Symbol, f: CoeffVec, tol: float = 1e-10) -> PNormResult:
    """Mean of |f o phi|^2 on the circle for a polynomial f, on the nested grid
    ladder from phi's grid_size.  f is applied to phi's boundary values, so no
    composite symbol meets the degree cap or the pole check of den^deg(f)."""
    return _grid_ladder(lambda B, shift: np.abs(poly_eval(f, circle_values(s, B, shift))) ** 2,
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
