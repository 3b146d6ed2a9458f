"""Higher-level procedures tying the compression solvers to the closed forms:
the exponent solve matching the restricted norm to a boundary p-norm, the
minimal-restricted-norm equivalence checks, the power-orthogonality audit,
and the iterate contraction sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compop import comp_matrix, const_matrix, norm_schedule, op_norm
from .errors import BracketError, ConvergenceError, InconsistencyError, PreconditionError
from .hardy import h2_inner, h2_norm, inner_multiple, is_inner, p_norm, power_overlaps, pullback_h2
from .symbolic import (
    MAX_DEGREE,
    Symbol,
    compose,
    fixed_point,
    powers,
    require_origin_fixed,
    require_selfmap,
    taylor,
    trim,
    unit_powers,
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
    h2: float
    sup: float


def _restricted_schedule(s: Symbol, N: int) -> tuple[float, float, float]:
    """Restricted norms at N/4, N/2, N: value, plateau delta, Aitken limit."""
    v1, v2, v3 = norm_schedule("restricted", {"s": s}, (N // 4, N // 2, N)).values
    d1, d2 = v2 - v1, v3 - v2
    extrapolated = v3
    if d1 > 0 and 0 < d2 < 0.95 * d1:
        ratio = d2 / d1
        extrapolated = v3 + d2 * ratio / (1.0 - ratio)
    return v3, d2, extrapolated


def p_solve(s: Symbol, tol: float = 1e-8, N: int = 512) -> PSolveResult:
    """Solve ||phi||_p = ||C_phi restricted to zH^2|| for the exponent p.

    Requires N >= 8 and a nonconstant selfmap fixing the origin.  The
    restricted norm is estimated at dimension N with a recorded plateau delta
    and an Aitken extrapolation (slowly converging compressions are reported,
    not hidden); scalar multiples of inner functions short-circuit to
    "inner_multiple", everything else is solved by bisection using
    monotonicity of p -> ||phi||_p.
    """
    if not 0.0 < tol < math.inf:
        raise PreconditionError(f"exponent tolerance must be positive and finite, got {tol!r}")
    if N < 8:  # the schedule solves at N/4, N/2 and N
        raise PreconditionError(f"exponent solve needs N >= 8, got {N}")
    require_selfmap(s)
    if s.is_constant:
        raise PreconditionError("exponent solve needs a nonconstant symbol")
    require_origin_fixed(s, "exponent solve")
    r, plateau, r_extrap = _restricted_schedule(s, N)
    if plateau > PLATEAU_HARD_LIMIT:
        raise ConvergenceError(
            f"restricted norm still moving by {plateau:.3g} at dimension {N}"
        )
    h2 = p_norm(s, 2, tol=QUAD_TOL).value
    sup = p_norm(s, math.inf).value
    ok, _mag = inner_multiple(s)
    if ok:
        return PSolveResult("inner_multiple", None, abs(sup - r), r, r_extrap, plateau, h2, sup)
    if r < h2 - 1e-6 or r > sup + 1e-6:
        raise InconsistencyError(
            f"restricted norm {r:.12g} escapes [||phi||_2, ||phi||_inf] = "
            f"[{h2:.12g}, {sup:.12g}]; compression dimension too small"
        )

    def g(p: float) -> float:
        return p_norm(s, p, tol=QUAD_TOL).value - r

    g2 = h2 - r
    if g2 >= -1e-9:
        return PSolveResult("finite", 2.0, abs(g2), r, r_extrap, plateau, h2, sup)
    if g(float(P_CAP)) < 0.0:
        raise BracketError(
            f"||phi||_p stays below the restricted norm {r:.12g} up to p = {P_CAP}"
        )
    lo, hi = 2.0, float(P_CAP)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the interval cannot shrink
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return PSolveResult("finite", p_star, abs(g(p_star)), r, r_extrap, plateau, h2, sup)


def p_grid_sign_changes(s: Symbol, r: float) -> int:
    """Sign changes of p -> ||phi||_p - r on 64 log-spaced exponents in [2, P_CAP]."""
    ps = np.exp(np.linspace(math.log(2.0), math.log(float(P_CAP)), 64))
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
    restricted_norm:  ||C_phi|zH^2|| at the given dimension, as restricted_norm
    """

    h2_gap: float
    gram_z_residual: float
    eigen_residual: float
    power_overlaps: np.ndarray
    h2_value: float
    restricted_norm: float


def _require_power_cap(s: Symbol, n_max: int) -> None:
    """Reject power expansions above the rational degree cap."""
    if s.degree * n_max > MAX_DEGREE:
        raise PreconditionError(
            f"power expansion degree {s.degree * n_max} exceeds cap {MAX_DEGREE}"
        )


def minimal_norm_check(s: Symbol, N: int | None = None, n_max: int = 10) -> MinimalNormReport:
    """Residuals of the four equivalent conditions for the restricted norm of
    C_phi (phi fixing 0) to equal ||phi||_2, from one h20 build.

    The coefficients are the Taylor section of length MAX_DEGREE + 1, exact
    for polynomials; with N > deg * n_max their Gram entries are exact too.
    """
    if n_max < 2:
        raise PreconditionError(f"the minimal-norm check needs n_max >= 2, got {n_max}")
    require_selfmap(s)
    require_origin_fixed(s, "the check")
    _require_power_cap(s, n_max)
    if N is None:
        N = max(16, s.degree * n_max + 8)
    base = trim(taylor(s, MAX_DEGREE + 1))
    h2 = h2_norm(base)
    A = comp_matrix(s, N, "h20")
    M = A.entries
    w = M.conj().T @ M[:, 0]  # M^H M e_z
    eigen_res = float(np.linalg.norm(w[1:]))  # against the Rayleigh quotient w[0]
    w[0] -= h2**2
    overlaps = np.fromiter(power_overlaps(base, n_max), dtype=complex)
    r = op_norm(A)  # on the stored matrix, as restricted_norm solves it
    return MinimalNormReport(
        h2_gap=abs(r - h2),
        gram_z_residual=float(np.linalg.norm(w)),
        eigen_residual=eigen_res,
        power_overlaps=overlaps,
        h2_value=h2,
        restricted_norm=r,
    )


def rudin_audit(s: Symbol, n_max: int) -> np.ndarray:
    """Gram matrix <phi^m, phi^n>, m, n = 0..n_max, by exact polynomial expansion.

    The full power family {phi^n} is orthogonal iff every off-diagonal entry
    vanishes; polynomial symbols only (the expansion must be exact).
    """
    if n_max < 1:
        raise PreconditionError(f"power-orthogonality audit needs n_max >= 1, got {n_max}")
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
    if n_max < 1:
        raise PreconditionError(f"iterate sweep needs n_max >= 1, got {n_max}")
    require_selfmap(s)
    if is_inner(s).is_inner:
        raise PreconditionError("iterate sweep needs a non-inner symbol")
    p = fixed_point(s)
    cp = const_matrix(p, N).entries
    d_fixed, norms, d_origin, gaps = [], [], [], []
    current = s
    for n in range(1, n_max + 1):
        if n > 1:
            current = compose(s, current)
        A = comp_matrix(current, N, "full")
        d_fixed.append(op_norm(A.entries - cp))
        norms.append(op_norm(A))
        q = current.value_at_zero()
        d_origin.append(op_norm(A.entries - const_matrix(q, N).entries))
        gaps.append(norms[-1] - d_origin[-1])
    return IterateSweepReport(
        fixed_pt=p,
        ns=tuple(range(1, n_max + 1)),
        dist_to_fixed=tuple(d_fixed),
        op_norms=tuple(norms),
        dist_to_origin_const=tuple(d_origin),
        strict_gaps=tuple(gaps),
        first_strict_n=next((n for n, gap in enumerate(gaps, 1) if gap > 1e-6), None),
    )


# ---------------------------------------------------------------------------
# boundary pull-back identity for inner symbols


@dataclass(frozen=True)
class PullbackCheck:
    lhs: float       # mean of |f o phi|^2 on p_norm's grid ladder
    rhs: float       # mean of |f|^2 weighted by the Poisson kernel at phi(0), in closed form
    residual: float


def inner_pullback_check(s: Symbol, f_coeffs) -> PullbackCheck:
    """Check that composition with an inner symbol pulls the boundary measure
    back to the Poisson measure at p = phi(0) (Nordgren).  The right side is
    sum f_j conj(f_k) m(j - k) with the Poisson moments m(n) = p^n for n >= 0
    and conj(p)^|n| for n < 0."""
    require_selfmap(s)  # is_inner alone passes near-inner maps leaving the disk
    if not is_inner(s).is_inner:
        raise PreconditionError("the pull-back identity needs an inner symbol")
    f = Symbol(f_coeffs)
    lhs = pullback_h2(s, f.num, tol=QUAD_TOL).value
    n = np.subtract.outer(np.arange(f.num.size), np.arange(f.num.size))
    m = unit_powers(s.value_at_zero(), f.num.size)[np.abs(n)]
    rhs = float((f.num @ np.where(n >= 0, m, np.conj(m)) @ np.conj(f.num)).real)
    return PullbackCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))
