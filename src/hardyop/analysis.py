"""Higher-level procedures tying the compression solvers to the closed forms:
the exponent solve matching the restricted norm to a boundary p-norm, the
minimal-restricted-norm equivalence checks, the power-orthogonality audit,
and the iterate contraction sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .compop import comp_matrix, const_matrix, op_norm, restricted_norm
from .errors import BracketError, ConvergenceError, InconsistencyError, PreconditionError
from .hardy import h2_inner, h2_norm, inner_multiple, is_inner, p_norm, powers
from .symbolic import (
    Symbol,
    circle_grid,
    circle_values,
    fixed_point,
    iterate,
    max_degree,
    require_selfmap,
    taylor,
)

P_CAP = 1 << 16            # upper end of the exponent bracket
PLATEAU_HARD_LIMIT = 1e-2  # restricted-norm schedule must at least settle this far
QUAD_TOL = 1e-12           # p-norm quadrature tolerance inside the solver


@dataclass(frozen=True)
class PSolveResult:
    """Exponent p with ||phi||_p equal to the restricted norm of C_phi.

    outcome is "finite" (unique p, reported with the bisection residual) or
    "inner_multiple" (every p in [2, inf] works; p_value is None).
    """

    outcome: str
    p_value: float | None
    residual: float
    r: float
    r_extrapolated: float
    plateau_delta: float
    dimension: int
    h2: float
    sup: float


def _restricted_schedule(s: Symbol, N: int) -> tuple[float, float, float]:
    """Restricted norms at N/4, N/2, N: value, plateau delta, Aitken limit."""
    dims = [max(8, N // 4), max(16, N // 2), N]
    v1, v2, v3 = (restricted_norm(s, d) for d in dims)
    plateau = v3 - v2
    d1, d2 = v2 - v1, v3 - v2
    extrapolated = v3
    if d1 > 0 and 0 < d2 < 0.95 * d1:
        ratio = d2 / d1
        extrapolated = v3 + d2 * ratio / (1.0 - ratio)
    return v3, plateau, extrapolated


def p_solve(s: Symbol, tol: float = 1e-8, N: int = 512) -> PSolveResult:
    """Solve ||phi||_p = ||C_phi restricted to zH^2|| for the exponent p.

    Requires a nonconstant selfmap fixing the origin.  The restricted norm is
    estimated at dimension N with a recorded plateau delta and an Aitken
    extrapolation (slowly converging compressions are reported, not hidden);
    scalar multiples of inner functions short-circuit to "inner_multiple",
    everything else is solved by bisection using monotonicity of p -> ||phi||_p.
    """
    require_selfmap(s)
    if s.is_constant:
        raise PreconditionError("exponent solve needs a nonconstant symbol")
    if abs(s.value_at_zero()) > 1e-12:
        raise PreconditionError("exponent solve needs a symbol fixing the origin")
    r, plateau, r_extrap = _restricted_schedule(s, N)
    if plateau > PLATEAU_HARD_LIMIT:
        raise ConvergenceError(
            f"restricted norm still moving by {plateau:.3g} at dimension {N}"
        )
    h2 = p_norm(s, 2, tol=QUAD_TOL).value
    sup = p_norm(s, math.inf).value
    ok, _mag = inner_multiple(s)
    if ok:
        return PSolveResult("inner_multiple", None, abs(sup - r), r, r_extrap,
                            plateau, N, h2, sup)
    if r < h2 - 1e-6 or r > sup + 1e-6:
        raise InconsistencyError(
            f"restricted norm {r:.12g} escapes [||phi||_2, ||phi||_inf] = "
            f"[{h2:.12g}, {sup:.12g}]; compression dimension too small"
        )

    def g(p: float) -> float:
        return p_norm(s, p, tol=QUAD_TOL).value - r

    g2 = g(2.0)
    if g2 >= -1e-9:
        return PSolveResult("finite", 2.0, abs(g2), r, r_extrap, plateau, N, h2, sup)
    if g(float(P_CAP)) < 0.0:
        raise BracketError(
            f"||phi||_p stays below the restricted norm {r:.12g} up to p = {P_CAP}"
        )
    lo, hi = 2.0, float(P_CAP)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return PSolveResult("finite", p_star, abs(g(p_star)), r, r_extrap, plateau, N, h2, sup)


def p_grid_sign_changes(s: Symbol, r: float, count: int = 64,
                        p_min: float = 2.0, p_max: float = float(P_CAP)) -> int:
    """Sign changes of p -> ||phi||_p - r on a log-spaced exponent grid."""
    ps = np.exp(np.linspace(math.log(p_min), math.log(p_max), count))
    vals = np.array([p_norm(s, float(p), tol=1e-10).value - r for p in ps])
    signs = np.sign(vals[np.abs(vals) > 1e-14])
    return int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0


# ---------------------------------------------------------------------------
# minimal restricted norm: four equivalent characterizations


@dataclass(frozen=True)
class MinimalNormReport:
    """Residuals of the equivalent characterizations of the case where the
    restricted norm attains its minimal value ||phi||_2.

    h2_gap:           | ||C_phi|zH^2|| - ||phi||_2 |  at the given dimension
    gram_z_residual:  || M^H M e_z - ||phi||_2^2 e_z ||  (z as exact eigenvector)
    eigen_residual:   same vector against its own Rayleigh quotient
    power_overlaps:   <phi, phi^n> for n = 2..n_max (exact for polynomials)
    """

    h2_gap: float
    gram_z_residual: float
    eigen_residual: float
    power_overlaps: np.ndarray
    restricted_value: float
    h2_value: float
    dimension: int


def _require_power_cap(s: Symbol, n_max: int) -> None:
    """Reject polynomial power expansions above the rational degree cap."""
    if s.num_degree * n_max > max_degree():
        raise PreconditionError(
            f"power expansion degree {s.num_degree * n_max} exceeds cap {max_degree()}"
        )


def minimal_norm_check(s: Symbol, N: int | None = None, n_max: int = 10) -> MinimalNormReport:
    """Residuals of the four equivalent conditions for the restricted norm of
    C_phi (phi fixing 0) to equal ||phi||_2.

    Polynomial symbols with N > deg * n_max make the Gram entries exact.
    """
    require_selfmap(s)
    if abs(s.value_at_zero()) > 1e-12:
        raise PreconditionError("the check needs a symbol fixing the origin")
    if s.is_polynomial:
        _require_power_cap(s, n_max)
    if N is None:
        N = max(16, s.degree * n_max + 8)
    # exact coefficients for polynomials, a 4096-term Taylor section otherwise
    base = s.num if s.is_polynomial else taylor(s, 4096)
    h2 = h2_norm(base)
    M = comp_matrix(s, N, "h20").entries
    e_z = np.zeros(N, dtype=complex)
    e_z[0] = 1.0
    w = M.conj().T @ (M @ e_z)
    gram_res = float(np.linalg.norm(w - h2**2 * e_z))
    lam = complex(w[0])  # Rayleigh quotient of e_z, since <e_z, e_z> = 1
    eigen_res = float(np.linalg.norm(w - lam * e_z))
    overlaps = np.array([h2_inner(base, p) for p in
                         islice(powers(base, n_max, base.size), 1, None)], dtype=complex)
    r = restricted_norm(s, N)
    return MinimalNormReport(
        h2_gap=abs(r - h2),
        gram_z_residual=gram_res,
        eigen_residual=eigen_res,
        power_overlaps=overlaps,
        restricted_value=r,
        h2_value=h2,
        dimension=N,
    )


def rudin_audit(s: Symbol, n_max: int) -> np.ndarray:
    """Gram matrix <phi^m, phi^n>, m, n = 0..n_max, by exact polynomial expansion.

    The full power family {phi^n} is orthogonal iff every off-diagonal entry
    vanishes; polynomial symbols only (the expansion must be exact).
    """
    if not s.is_polynomial:
        raise PreconditionError("power-orthogonality audit needs a polynomial symbol")
    _require_power_cap(s, n_max)
    pw = [np.ones(1, dtype=complex), *powers(s.num, n_max, s.num_degree * n_max + 1)]
    G = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            G[m, n] = h2_inner(pw[m], pw[n])
            G[n, m] = np.conj(G[m, n])
    return G


# ---------------------------------------------------------------------------
# iterates


@dataclass(frozen=True)
class IterateSweepReport:
    """Per-iterate compression norms for a non-inner symbol with an interior
    fixed point p: distances to C_p, operator norms, distances to the constant
    at the iterate's origin value, and where the strict gap settles."""

    fixed_pt: complex
    ns: tuple[int, ...]
    dist_to_fixed: tuple[float, ...]
    op_norms: tuple[float, ...]
    dist_to_origin_const: tuple[float, ...]
    strict_gaps: tuple[float, ...]      # ||C_phi_n|| - ||C_phi_n - C_phi_n(0)||
    first_strict_n: int | None          # first n with gap > 1e-6


def iterate_sweep(s: Symbol, n_max: int, N: int) -> IterateSweepReport:
    """Compression view of the contraction of iterates toward the fixed point."""
    require_selfmap(s)
    if is_inner(s).is_inner:
        raise PreconditionError("iterate sweep needs a non-inner symbol")
    p = fixed_point(s)
    cp = const_matrix(p, N)
    ns, d_fixed, norms, d_origin, gaps = [], [], [], [], []
    first_strict = None
    current = s
    for n in range(1, n_max + 1):
        if n > 1:
            current = iterate(s, n)
        A = comp_matrix(current, N, "full")
        dist_p = op_norm(A - cp)
        nrm = op_norm(A)
        q = current.value_at_zero()
        dist_q = op_norm(A - const_matrix(q, N))
        gap = nrm - dist_q
        ns.append(n)
        d_fixed.append(dist_p)
        norms.append(nrm)
        d_origin.append(dist_q)
        gaps.append(gap)
        if first_strict is None and gap > 1e-6:
            first_strict = n
    return IterateSweepReport(
        fixed_pt=p,
        ns=tuple(ns),
        dist_to_fixed=tuple(d_fixed),
        op_norms=tuple(norms),
        dist_to_origin_const=tuple(d_origin),
        strict_gaps=tuple(gaps),
        first_strict_n=first_strict,
    )


# ---------------------------------------------------------------------------
# boundary pull-back identity for inner symbols


@dataclass(frozen=True)
class PullbackCheck:
    lhs: float       # mean of |f o phi|^2 on the circle
    rhs: float       # mean of |f|^2 weighted by the Poisson kernel at phi(0)
    residual: float


def inner_pullback_check(s: Symbol, f_coeffs, grid: int = 1024) -> PullbackCheck:
    """Quadrature check that composition with an inner symbol pulls the
    boundary measure back to the Poisson measure at phi(0)."""
    if not is_inner(s).is_inner:
        raise PreconditionError("the pull-back identity needs an inner symbol")
    f = Symbol(f_coeffs)
    w = np.exp(1j * circle_grid(grid))
    lhs = float(np.mean(np.abs(f(circle_values(s, grid))) ** 2))
    p0 = s.value_at_zero()
    pois = ((w + p0) / (w - p0)).real  # Poisson kernel at phi(0), vectorized
    rhs = float(np.mean(np.abs(circle_values(f, grid)) ** 2 * pois))
    return PullbackCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))
