import math
from itertools import islice

import numpy as np
import pytest

from hardyop import (
    ConvergenceError,
    NotSelfmapError,
    PreconditionError,
    alpha,
    blaschke,
    compop,
    compose,
    constant,
    distance,
    h2_norm,
    inner_pullback_check,
    iterate_sweep,
    minimal_norm_check,
    p_grid_sign_changes,
    p_solve,
    parse_symbol,
    restricted_norm,
    rudin_audit,
    taylor,
    verify,
)
from hardyop.hardy import h2_inner
from hardyop.symbolic import MAX_DEGREE, powers

PHI23 = parse_symbol("(z^2+z^3)/2")
PHI12 = parse_symbol("(z+z^2)/2")


# ---------------------------------------------------------------------------
# exponent solve


def test_p_solve_minimal_case():
    res = p_solve(PHI23)
    assert res.outcome == "finite"
    assert res.p_value == pytest.approx(2.0, abs=1e-6)
    assert res.residual <= 1e-8
    assert res.r == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_p_solve_inner_multiple():
    res = p_solve(parse_symbol("0.7*z^3"))
    assert res.outcome == "inner_multiple"
    assert res.p_value is None
    assert res.h2 == pytest.approx(0.7, abs=1e-12)
    assert res.sup == pytest.approx(0.7, abs=1e-12)
    assert res.residual <= 1e-10


def test_p_solve_intermediate_exponent():
    res = p_solve(PHI12)
    assert res.outcome == "finite"
    assert res.p_value is not None and res.p_value > 2.0
    assert res.residual <= 1e-8
    # slow O(1/N) compression convergence is reported, not hidden
    assert res.plateau_delta > 1e-6
    assert res.r_extrapolated > res.r
    assert res.h2 - 1e-9 <= res.r <= res.sup + 1e-9


def test_p_solve_brackets_small_sup():
    # sup 0.6: an unscaled |phi|^65536 underflows to 0 at the top of the bracket
    res = p_solve(parse_symbol("0.3*z + 0.3*z^2"))
    assert res.outcome == "finite"
    assert math.isfinite(res.p_value)


def test_p_solve_preconditions():
    with pytest.raises(PreconditionError):
        p_solve(parse_symbol("const(0.4)"))
    with pytest.raises(PreconditionError):
        p_solve(parse_symbol("z/2 + 0.25"))
    for N in (4, 1, 0, -5):  # the schedule N/4, N/2, N needs N/4 >= 2
        with pytest.raises(PreconditionError):
            p_solve(parse_symbol("z^2"), N=N)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_p_solve_rejects_bad_tolerance(tol):
    # nan and inf would skip the bisection, 0 and -1 would never end it
    with pytest.raises(PreconditionError):
        p_solve(PHI12, tol=tol, N=64)


def test_p_solve_tolerance_below_float_spacing_returns():
    # the bisection ends once lo and hi are adjacent floats
    res = p_solve(PHI12, tol=1e-300, N=64)
    assert res.p_value == pytest.approx(p_solve(PHI12, N=64).p_value, abs=1e-8)


def test_p_solve_unsettled_schedule():
    # N/4, N/2, N = 4, 8, 16: the (z+z^2)/2 compressions still move by 0.011
    with pytest.raises(ConvergenceError):
        p_solve(PHI12, N=16)


def test_p_grid_single_sign_change():
    res = p_solve(PHI12)
    assert p_grid_sign_changes(PHI12, res.r) == 1


# ---------------------------------------------------------------------------
# minimal-norm equivalences


def test_minimal_norm_check_orthogonal_case():
    rep = minimal_norm_check(PHI23, n_max=10)
    assert rep.gram_z_residual <= 1e-12
    assert rep.eigen_residual <= 1e-12
    assert np.all(rep.power_overlaps == 0)
    assert rep.h2_gap <= 1e-9


def test_minimal_norm_check_square_symbol():
    rep = minimal_norm_check(parse_symbol("z^2"), n_max=6)
    assert rep.gram_z_residual <= 1e-12
    assert rep.h2_gap <= 1e-12
    assert np.all(rep.power_overlaps == 0)


def test_minimal_norm_check_failing_case():
    rep = minimal_norm_check(PHI12, N=128, n_max=4)
    # expansion oracle: phi^2 = (z^2 + 2 z^3 + z^4)/4 overlaps phi at degree 2
    phi = np.array([0, 0.5, 0.5])
    phi2 = np.convolve(phi, phi)
    assert phi[2] * phi2[2] == 0.125
    assert rep.power_overlaps[0] == pytest.approx(0.125, abs=1e-15)
    assert rep.h2_gap > 1e-3


def test_minimal_norm_check_rational_overlaps():
    # rational symbols: overlaps of the (MAX_DEGREE + 1)-term Taylor section
    # with its powers
    s = parse_symbol("0.5*z*alpha(0.5)")
    rep = minimal_norm_check(s, n_max=4)
    t = taylor(s, MAX_DEGREE + 1)
    power, expect = t, []
    for _ in range(3):
        power = np.convolve(power, t)[:t.size]
        expect.append(np.sum(t * np.conj(power)))
    assert rep.power_overlaps.shape == (3,)
    assert np.max(np.abs(rep.power_overlaps - np.array(expect))) <= 1e-15


def test_minimal_norm_check_requires_origin_fixing():
    with pytest.raises(PreconditionError):
        minimal_norm_check(alpha(0.3))


def test_minimal_norm_orthogonality_forces_equality():
    # degrees {3, 5} cannot overlap the higher powers, so the restricted norm
    # equals the coefficient norm exactly at any dimension >= the degree
    s = parse_symbol("0.4*z^3 + 0.3*z^5")
    rep = minimal_norm_check(s, N=40, n_max=8)
    assert np.all(rep.power_overlaps == 0)
    assert rep.h2_value == pytest.approx(0.5, abs=1e-15)
    assert rep.h2_gap <= 1e-6


def test_minimal_norm_violation_forces_positive_margin():
    # <phi, phi^3> = 0.0625 for (z+z^3)/2, so the restricted norm must exceed
    # the coefficient norm by a definite margin
    rep = minimal_norm_check(parse_symbol("(z+z^3)/2"), N=256, n_max=4)
    assert abs(rep.power_overlaps[1]) == pytest.approx(0.0625, abs=1e-15)
    assert rep.h2_gap > 1e-4


@pytest.mark.parametrize("text", ["0.5i*z + 0.3*z^2", "z*alpha((0.3+0.4i))", "(z+z^2)/2"])
def test_minimal_norm_gap_is_the_restricted_norms(text):
    # the check solves the stored real matrix, as restricted_norm does, not
    # the complex entries of a rotated symbol, whose norm differs from it in
    # the last bits
    s = parse_symbol(text)
    rep = minimal_norm_check(s, N=64)
    assert rep.restricted_norm == restricted_norm(s, 64)
    assert rep.h2_gap == abs(restricted_norm(s, 64) - rep.h2_value)


@pytest.mark.parametrize("text", [
    "(z^2+z^3)/2", "0.4*z^3 + 0.3*z^5", "(0.3+0.4i)*z + 0.2i*z^2 + 0.1*z^7"])
def test_minimal_norm_check_polynomial_values_are_exact(text):
    # a polynomial's Taylor section is its own coefficients, so its norm and
    # overlaps are bitwise those of the coefficients and their powers
    s = parse_symbol(text)
    rep = minimal_norm_check(s, n_max=10)
    expect = [h2_inner(s.num, p) for p in islice(powers(s.num, 10, s.num.size), 1, None)]
    assert rep.h2_value == h2_norm(s.num)
    assert rep.power_overlaps.tobytes() == np.array(expect, dtype=complex).tobytes()


def _count_builds(monkeypatch):
    dims, solves = [], []
    build, eigvalsh = compop._compression, np.linalg.eigvalsh

    def counted_build(s, N):
        dims.append(N)
        return build(s, N)

    def counted_solve(G):
        solves.append(G.shape)
        return eigvalsh(G)

    monkeypatch.setattr(compop, "_compression", counted_build)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_solve)
    return dims, solves


def test_minimal_norm_case_builds_once(monkeypatch):
    dims, solves = _count_builds(monkeypatch)
    result = verify.check_minimal_norm_case()
    assert result.passed
    assert dims == [17]
    assert len(solves) == 1


def test_minimal_norm_check_caps_rational_symbols(monkeypatch):
    # degree 500, sup 0.8: the default n_max = 10 asks for degree 5000 > MAX_DEGREE
    s = parse_symbol("0.4*z/(1 - 0.5*z^500)")
    assert s.degree == 500 and not s.is_polynomial
    dims, _ = _count_builds(monkeypatch)
    with pytest.raises(PreconditionError):
        minimal_norm_check(s)
    assert dims == []
    rep = minimal_norm_check(s, N=64, n_max=8)
    assert dims == [65]
    assert rep.restricted_norm == restricted_norm(s, 64)


# ---------------------------------------------------------------------------
# power-orthogonality audit


def test_rudin_audit_monomial():
    G = rudin_audit(parse_symbol("z^2"), 4)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) == 0.0


def test_rudin_audit_strictness_example():
    # satisfies <phi, phi^n> = 0 yet fails full power orthogonality
    G = rudin_audit(PHI23, 3)
    assert np.all(G[1, 2:] == 0)
    assert G[2, 3] == pytest.approx(0.03125, abs=1e-15)


def test_rudin_audit_rejects_rational():
    with pytest.raises(PreconditionError):
        rudin_audit(parse_symbol("0.5*z*alpha(0.5)"), 3)


@pytest.mark.parametrize("call", [
    lambda: minimal_norm_check(PHI12, n_max=1),
    lambda: rudin_audit(PHI12, 0),
    lambda: iterate_sweep(parse_symbol("z/2 + 0.25"), 0, 16),
], ids=["minimal_norm_check", "rudin_audit", "iterate_sweep"])
def test_power_counts_that_leave_nothing_to_check_are_rejected(monkeypatch, call):
    # n_max = 1 leaves no overlap <phi, phi^n>, n >= 2, for verify's exact
    # "== 0" to read, so (z+z^2)/2, whose <phi, phi^2> is 0.125, would pass;
    # an audit or sweep of no power is an empty report.  Raised before any build
    dims, _ = _count_builds(monkeypatch)
    with pytest.raises(PreconditionError, match="n_max"):
        call()
    assert dims == []


# ---------------------------------------------------------------------------
# iterates


def test_iterate_sweep_affine():
    rep = iterate_sweep(parse_symbol("z/2 + 0.25"), 4, 64)
    assert abs(rep.fixed_pt - 0.5) <= 1e-10
    assert all(a > b for a, b in zip(rep.dist_to_fixed, rep.dist_to_fixed[1:]))
    assert rep.first_strict_n == 1
    assert all(g > 1e-6 for g in rep.strict_gaps)


def test_iterate_sweep_rejects_inner():
    with pytest.raises(PreconditionError):
        iterate_sweep(parse_symbol("z^2"), 3, 32)


def test_iterate_sweep_origin_fixing_below_one():
    rep = iterate_sweep(PHI12, 3, 128)
    assert abs(rep.fixed_pt) <= 1e-12
    assert all(d < 1.0 for d in rep.dist_to_origin_const)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("text", ["z/2 + 0.25", "(z+z^2)/2", "0.5*blaschke(0.3, 0.4i)",
                                  "(0.3+0.4i)*z + 0.2i*z^2", "0.3i + 0.5*z", "0.6*alpha(0.5)"])
def test_iterate_sweep_distances_are_compression_distances(text, N):
    # one build per iterate, and each distance is its entries less the
    # constant's: bitwise the values of distance(), phases included
    s = parse_symbol(text)
    rep = iterate_sweep(s, 4, N)
    current = s
    for n, to_fixed, to_origin in zip(rep.ns, rep.dist_to_fixed, rep.dist_to_origin_const):
        if n > 1:
            current = compose(s, current)
        assert to_fixed == distance(current, constant(rep.fixed_pt), N)
        assert to_origin == distance(current, constant(current.value_at_zero()), N)


# ---------------------------------------------------------------------------
# boundary pull-back identity


def test_pullback_alpha_affine_test_function():
    res = inner_pullback_check(alpha(0.3), [1.0, 1.0])
    assert res.residual <= 1e-10
    assert res.lhs == pytest.approx(2.6, abs=1e-10)
    assert res.rhs == pytest.approx(2.6, abs=1e-10)


def test_pullback_constant_test_function():
    res = inner_pullback_check(alpha(0.3), [1.0])
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)


def test_pullback_origin_fixing_isometry():
    rng = np.random.default_rng(13)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    res = inner_pullback_check(parse_symbol("z^2"), f)
    assert res.residual <= 1e-10
    assert res.lhs == pytest.approx(h2_norm(f) ** 2, abs=1e-10)


def test_pullback_random_blaschke_products():
    rng = np.random.default_rng(17)
    for _ in range(5):
        pts = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        s = blaschke([p for p in pts if abs(p) < 0.7])
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert inner_pullback_check(s, f).residual <= 1e-8


@pytest.mark.parametrize("text", ["alpha(0.999)", "z^600*alpha(0.95)"])
def test_pullback_holds_near_the_circle_and_at_high_degree(text):
    # f o phi decays slowly or has high degree here, so a fixed grid of a
    # thousand points is too coarse; p_norm's grid ladder follows both
    res = inner_pullback_check(parse_symbol(text), [1.0, 1.0])
    assert res.residual <= 1e-12


@pytest.mark.parametrize("text, degree", [("alpha(0.99)", 10), ("alpha(0.999)", 40),
                                          ("z^600*alpha(0.95)", 7)])
def test_pullback_takes_f_of_any_degree(text, degree):
    # f o phi as a symbol would have the pole (1 - conj(p) z)^deg(f), whose
    # root solve wanders into the disk, or a degree above the cap (7 * 601)
    f = np.ones(degree + 1)
    assert inner_pullback_check(parse_symbol(text), f).residual <= 1e-12


def test_pullback_closed_form_matches_poisson_quadrature():
    # sum f_j conj(f_k) m(j - k) against the Poisson-weighted mean of |f|^2
    rng = np.random.default_rng(5)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = 0.5
    w = np.exp(2j * np.pi * np.arange(1 << 20) / (1 << 20))
    quad = np.mean(np.abs(np.polynomial.polynomial.polyval(w, f)) ** 2 * ((w + p) / (w - p)).real)
    assert inner_pullback_check(alpha(p), f).rhs == pytest.approx(quad, rel=1e-12)


def test_pullback_rejects_non_inner():
    with pytest.raises(PreconditionError):
        inner_pullback_check(PHI12, [1.0, 1.0])


def test_pullback_rejects_an_inner_map_leaving_the_disk():
    # a Blaschke-like map whose pole and zero straddle the circle: boundary sup
    # 1 + 1.0e-6, but is_inner's margin 2.0e-11 is under COEFF_TOL, so only
    # the selfmap test tells; iterate_sweep rejects the same symbol
    s = parse_symbol("(0.99998999999 - z)/(1 - 0.99999*z)")
    with pytest.raises(NotSelfmapError):
        inner_pullback_check(s, [1.0, 1.0])
    with pytest.raises(NotSelfmapError):
        iterate_sweep(s, 3, 16)


# ---------------------------------------------------------------------------
# composition contraction for degree-gap polynomials


def test_composition_bound_for_power_orthogonal_symbols():
    # random phi = c_a z^a + c_b z^b with a <= b < 2a never overlaps its own
    # higher powers, so ||q o phi||_2 <= ||phi||_2 ||q||_2 for q in zH^2
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = int(rng.integers(2, 5))
        b = int(rng.integers(a, 2 * a))
        num = np.zeros(b + 1, dtype=complex)
        num[a] = rng.standard_normal() + 1j * rng.standard_normal()
        num[b] += rng.standard_normal() + 1j * rng.standard_normal()
        scale = np.sum(np.abs(num))
        if scale == 0:
            continue
        num *= rng.uniform(0.2, 0.95) / scale
        q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        q[0] = 0.0
        # exact polynomial composition q(phi) by Horner
        comp = np.array([0.0], dtype=complex)
        for c in q[::-1]:
            comp = np.convolve(comp, num)
            comp[0] += c
        lhs = float(np.linalg.norm(comp))
        rhs = float(np.linalg.norm(num)) * float(np.linalg.norm(q))
        assert lhs <= rhs + 1e-9
