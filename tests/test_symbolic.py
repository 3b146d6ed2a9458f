import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from hardyop import (
    ConvergenceError,
    DegreeCapError,
    HardyOpError,
    NotSelfmapError,
    ParseError,
    PreconditionError,
    Symbol,
    UnitDiskPoleError,
    alpha,
    circle_values,
    compose,
    constant,
    fixed_point,
    format_symbol,
    identity,
    iterate,
    parse_symbol,
    taylor,
    taylor_close,
    validate_selfmap,
)
from hardyop.symbolic import (
    TAYLOR_BLOCK,
    boundary_moduli,
    modulus_products,
    require_selfmap,
    rotation_real,
)


def geometric_division_oracle(p: float, N: int) -> np.ndarray:
    """Long division of (p - z) by (1 - p z) via the geometric series."""
    geo = p ** np.arange(N + 1)  # 1/(1 - p z)
    out = np.zeros(N, dtype=complex)
    out += p * geo[:N]
    out[1:] -= geo[: N - 1]
    return out


# ---------------------------------------------------------------------------
# parsing


def test_parse_monomial():
    s = parse_symbol("z^2")
    assert np.array_equal(s.num, np.array([0, 0, 1], dtype=complex))
    assert np.array_equal(s.den, np.array([1], dtype=complex))
    s = parse_symbol("z^4096")
    assert np.array_equal(s.num, np.eye(1, 4097, 4096, dtype=complex)[0])


def test_parse_power_matches_polypow():
    base = np.array([0.3, -0.2 + 0.1j, 0.25j, 0.1])
    s = parse_symbol("(0.3 + (-0.2+0.1i)*z + 0.25i*z^2 + 0.1*z^3)^7")
    assert np.max(np.abs(s.num - npp.polypow(base, 7))) <= 1e-14


def test_parse_monomial_powers_exactly():
    # z^j raised to k is written directly: the same coefficients as repeated
    # squaring, at every degree up to the cap
    for j, k in ((1, 2), (1, 4096), (3, 7), (2, 2048)):
        s = parse_symbol(f"(z^{j})^{k}")
        expect = np.zeros(j * k + 1, dtype=complex)
        expect[-1] = 1.0
        assert s.num.tobytes() == expect.tobytes()
        assert np.array_equal(s.num, npp.polypow(np.eye(j + 1)[j], k))


def test_parse_alpha():
    s = parse_symbol("alpha(0.5)")
    assert np.array_equal(s.num, np.array([0.5, -1], dtype=complex))
    assert np.array_equal(s.den, np.array([1, -0.5], dtype=complex))


def test_parse_normalizes_constant_denominator():
    s = parse_symbol("(z^2+z^3)/2")
    assert np.array_equal(s.num, np.array([0, 0, 0.5, 0.5], dtype=complex))
    assert np.array_equal(s.den, np.array([1], dtype=complex))


def test_parse_complex_literals():
    s = parse_symbol("const((0.3+0.1i))")
    assert s.is_constant
    assert s.value_at_zero() == 0.3 + 0.1j
    assert parse_symbol("0.5i").value_at_zero() == 0.5j
    assert parse_symbol("i").value_at_zero() == 1j


def test_parse_blaschke_is_product_of_alphas():
    b = parse_symbol("blaschke(0.3,0.5)")
    byhand = compose(identity(), alpha(0.3))  # no-op; keeps types symmetric
    prod = Symbol(np.convolve(alpha(0.3).num, alpha(0.5).num),
                  np.convolve(alpha(0.3).den, alpha(0.5).den))
    assert taylor_close(b, prod, tol=1e-14)
    assert taylor_close(byhand, alpha(0.3), tol=1e-14)
    lead = parse_symbol("z^2*blaschke(0.5)")
    assert validate_selfmap(lead).is_selfmap


def test_parse_composition_and_iteration():
    invol = parse_symbol("alpha(0.5) @ alpha(0.5)")
    assert taylor_close(invol, identity(), tol=1e-12)
    two = parse_symbol("iter(z/2 + 0.25, 2)")
    assert taylor_close(two, parse_symbol("z/4 + 0.375"), tol=1e-14)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_symbol("z^^2")
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_symbol("alpha(z)")
    with pytest.raises(ParseError):
        parse_symbol("alpha(1.5)")
    with pytest.raises(ParseError):
        parse_symbol("frob(z)")
    with pytest.raises(ParseError):
        parse_symbol("z +")


@pytest.mark.parametrize("text, message, pos", [
    ("z^^2", "expected 'number', found '^'", 2),
    ("z +", "unexpected 'end'", 3),
    ("2in", "unknown identifier 'in'", 1),
    ("1e", "unknown identifier 'e'", 1),
    ("iter(z/2 2)", "expected ',', found 'number'", 9),
    ("blaschke(0.5,)", "unexpected ')'", 13),
    ("alpha(0.5, 0.3)", "expected ')', found ','", 9),
    ("z^2.5", "exponent must be an integer", 2),
    ("alpha(z)", "argument must be a constant", 6),
    ("z $", "unexpected character '$'", 2),
    ("\u00b2", "unknown identifier '\u00b2'", 0),
    ("1e400*z", "numeric literal '1e400' is not finite", 0),
    ("z^1e400", "numeric literal '1e400' is not finite", 2),
    ("2*1e999i", "numeric literal '1e999' is not finite", 2),
    pytest.param("(" * 1000 + "z" + ")" * 1000, "expression nested too deeply", 0, id="deep-nesting"),
])
def test_parse_error_table(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_symbol(text)
    assert err.value.pos == pos
    assert str(err.value) == f"{message} at position {pos} in {text!r}"


@pytest.mark.parametrize("text", ["z^200000", "z^1e300", "(z+z^2)^2049", "0.5^5000"])
def test_power_degree_checked_before_expansion(text):
    with pytest.raises(DegreeCapError):
        parse_symbol(text)


@pytest.mark.parametrize("text", ["1e200*1e200*z", "1/(2-z)^4000", "9e99^9", "1e300/1e-10"])
def test_nonfinite_coefficients_rejected(text):
    with pytest.raises(PreconditionError):
        parse_symbol(text)


DSL_TOKENS = ["z", "i", "0.5", "2", "3", "0.3i", "1e200", "9e99", "4096", "+", "-", "*",
              "/", "^", "(", ")", ",", "alpha", "const", "blaschke", " "]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(DSL_TOKENS), max_size=24))
def test_parse_accepts_only_finite_symbols(tokens):
    try:
        s = parse_symbol("".join(tokens))
    except HardyOpError:
        return
    assert np.isfinite(s.num).all() and np.isfinite(s.den).all()


def test_parse_pole_rejected():
    with pytest.raises(UnitDiskPoleError):
        parse_symbol("1/(1-z)")
    with pytest.raises(UnitDiskPoleError):
        parse_symbol("z^-1")


# ---------------------------------------------------------------------------
# taylor


def test_taylor_monomial():
    assert np.array_equal(taylor(parse_symbol("z^2"), 4),
                          np.array([0, 0, 1, 0], dtype=complex))


def test_taylor_alpha_long_division_oracle():
    oracle = geometric_division_oracle(0.5, 4)
    assert np.allclose(oracle, [0.5, -0.75, -0.375, -0.1875], atol=1e-15)
    got = taylor(alpha(0.5), 4)
    assert np.allclose(got, oracle, atol=1e-15)


def test_taylor_constant():
    assert np.array_equal(taylor(constant(0.3 + 0.2j), 5),
                          np.array([0.3 + 0.2j, 0, 0, 0, 0]))


def sequential_taylor(s: Symbol, N: int) -> np.ndarray:
    """Reference series division, one coefficient at a time:
    c_k = num_k - sum_{j=1..deg den} den_j c_{k-j}, since den(0) = 1."""
    c = np.zeros(N, dtype=complex)
    for k in range(N):
        acc = s.num[k] if k < s.num.size else 0.0
        j = min(k, s.den_degree)
        if j:
            acc -= np.dot(s.den[1:j + 1], c[k - j:k][::-1])
        c[k] = acc
    return c


# a slowly decaying series, a complex Blaschke product with a leading power,
# and a denominator of degree 100, above the block size
DIVISION_CASES = ["alpha(0.999)", "z^2*blaschke(0.3, 0.5i, -0.6)", "0.3/(1 - 0.5*z^100)"]


@pytest.mark.parametrize("text", DIVISION_CASES)
def test_blocked_division_matches_the_recurrence(text):
    s = parse_symbol(text)
    ref = sequential_taylor(s, 2048)
    assert np.max(np.abs(taylor(s, 2048) - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("text", DIVISION_CASES)
def test_taylor_sections_are_bitwise_prefixes(text):
    # the nested compression builds read a longer section's leading block
    s = parse_symbol(text)
    full = taylor(s, 2048)
    for n in (1, TAYLOR_BLOCK - 1, TAYLOR_BLOCK, TAYLOR_BLOCK + 1, 1000):
        assert np.array_equal(taylor(s, n), full[:n])


# ---------------------------------------------------------------------------
# boundary evaluation


def test_boundary_eval_examples():
    assert identity()(np.exp(1j * 0.0)) == pytest.approx(1.0)
    s = parse_symbol("(z^2+z^3)/2")
    assert s(np.exp(1j * 0.0)) == pytest.approx(1.0)


def test_evaluation_is_polyval_on_dense_polynomials():
    rng = np.random.default_rng(8)
    num, den = (rng.standard_normal(9) + 1j * rng.standard_normal(9) for _ in range(2))
    den[0] = 1.0
    den[1:] *= 0.05  # no pole in the disk
    z = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 25))
    for w in (z, complex(z[3])):
        assert np.array_equal(Symbol(num)(w), npp.polyval(w, num))
        assert np.array_equal(Symbol(num, den)(w), npp.polyval(w, num) / npp.polyval(w, den))


@pytest.mark.parametrize("r", [0.5, 0.99])
def test_evaluation_of_a_sparse_polynomial(r):
    # Horner over the two nonzero terms: one power z^4000, not 4000 steps
    s = parse_symbol("0.3 + 0.5*z^4000")
    z = r * np.exp(1j * np.linspace(0.0, 6.0, 25))
    assert np.max(np.abs(s(z) - npp.polyval(z, s.num))) <= 1e-13
    assert abs(s(complex(z[5])) - npp.polyval(z[5], s.num)) <= 1e-13


def test_boundary_eval_automorphism_modulus():
    vals = np.abs(circle_values(alpha(0.5), 1024))
    assert np.max(np.abs(vals - 1.0)) < 1e-12


@pytest.mark.parametrize("text, K, shift", [
    ("((0.3+0.2i)*z - 0.1*z^3)/(1 - 0.4*z + 0.1i*z^2)", 64, 0.0),  # rational
    ("0.2 + 0.3*z^5 - 0.25i*z^70 + 0.2*z^133", 32, 0.0),           # degree > K: folding
    ("(0.5*z + 0.2*z^40)/(1 + 0.3i*z^9)", 16, 0.7),                 # folding and shift
])
def test_circle_values_matches_horner(text, K, shift):
    s = parse_symbol(text)
    thetas = shift + 2 * np.pi * np.arange(K) / K
    # Horner's rounding error grows with the degree: 1.3e-14 at degree 133
    assert np.max(np.abs(circle_values(s, K, shift) - s(np.exp(1j * thetas)))) <= 1e-13


# ---------------------------------------------------------------------------
# compose / iterate


def test_compose_involution():
    assert taylor_close(compose(alpha(0.5), alpha(0.5)), identity(), tol=1e-12)


def test_compose_identity_right():
    f = parse_symbol("(z+z^2)/2")
    assert taylor_close(compose(f, identity()), f, tol=1e-14)


def test_compose_alpha_with_square():
    got = compose(alpha(0.3), parse_symbol("z^2"))
    expect = Symbol(np.array([0.3, 0, -1], dtype=complex),
                    np.array([1, 0, -0.3], dtype=complex))
    assert taylor_close(got, expect, tol=1e-13)


def test_taylor_close_on_unreduced_representation():
    # num and den share the factor 1 - z/2; the cross products still agree
    s = parse_symbol("z*(1-0.5*z)/(1-0.5*z)")
    assert s.den_degree == 1
    assert taylor_close(s, identity(), tol=0)
    assert not taylor_close(s, parse_symbol("z*(1-0.5*z)"))


def test_iterate_examples():
    s = parse_symbol("z/2 + 0.25")
    assert taylor_close(iterate(s, 1), s, tol=0)
    assert taylor_close(iterate(s, 2), parse_symbol("z/4 + 0.375"), tol=1e-14)
    assert taylor_close(iterate(parse_symbol("z^2"), 3), parse_symbol("z^8"), tol=1e-14)


def test_iterate_by_squaring_matches_repeated_composition():
    s = parse_symbol("0.5*z + 0.25*z^2")
    chain = s
    for n in range(2, 8):
        chain = compose(s, chain)
        assert taylor_close(iterate(s, n), chain, tol=1e-14)
    assert np.array_equal(iterate(s, 2).num, compose(s, s).num)


def test_iteration_count_costs_log_compositions():
    # 10^9 compositions of z/2 would take weeks; by squaring the coefficient
    # underflows to the constant 0 after about 30 compositions
    t0 = time.perf_counter()
    s = parse_symbol("iter(z/2, 1000000000)")
    assert time.perf_counter() - t0 < 1.0
    assert np.max(np.abs(s.num)) <= 1e-12 and s.is_polynomial
    fixed = parse_symbol("iter(z/2 + 0.25, 400)")
    assert np.max(np.abs(fixed.num - [0.5, 0.0])) <= 1e-12


def test_iterate_degree_cap():
    # the cap is MAX_DEGREE = 4096: z^16 iterated 3 times reaches it exactly
    assert iterate(parse_symbol("z^16"), 3).degree == 4096
    with pytest.raises(DegreeCapError):
        iterate(parse_symbol("z^65"), 2)  # degree 4225


@st.composite
def poly_selfmaps(draw):
    deg = draw(st.integers(1, 2))
    coeffs = np.array(
        draw(st.lists(st.floats(-1, 1), min_size=deg + 1, max_size=deg + 1)),
        dtype=complex,
    )
    scale = float(np.sum(np.abs(coeffs)))
    if scale < 1e-3:
        coeffs = np.zeros(deg + 1, dtype=complex)
        coeffs[1] = 0.5
        scale = 0.5
    return Symbol(coeffs * (0.9 / scale))


@settings(max_examples=25, deadline=None)
@given(poly_selfmaps(), st.integers(1, 2), st.integers(1, 2))
def test_iterate_semigroup(s, a, b):
    lhs = compose(iterate(s, a), iterate(s, b))
    rhs = iterate(s, a + b)
    N = 2 * max(lhs.degree, rhs.degree) + 8
    assert np.max(np.abs(taylor(lhs, N) - taylor(rhs, N))) <= 1e-10


def _substitute_series(tf: np.ndarray, tg: np.ndarray, N: int) -> np.ndarray:
    """Formal substitution oracle: evaluate tf at tg by truncated Horner."""
    out = np.zeros(N, dtype=complex)
    for c in tf[::-1]:
        out = np.convolve(out, tg)[:N]
        out[0] += c
    return out


@settings(max_examples=25, deadline=None)
@given(poly_selfmaps(), poly_selfmaps())
def test_taylor_of_composition_matches_substitution(f, g):
    N = 12
    direct = taylor(compose(f, g), N)
    sub = _substitute_series(taylor(f, N), taylor(g, N), N)
    assert np.max(np.abs(direct - sub)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(poly_selfmaps())
def test_selfmap_boundary_modulus(s):
    thetas = np.linspace(0.0, 2 * np.pi, 257)
    assert np.max(np.abs(s(np.exp(1j * thetas)))) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_affine():
    p = fixed_point(parse_symbol("z/2 + 0.25"))
    assert abs(p - 0.5) <= 1e-12


def test_fixed_point_origin():
    assert abs(fixed_point(parse_symbol("z^2"))) <= 1e-12


def test_fixed_point_elliptic_automorphism():
    # alpha_p(z) = z has the interior root (1 - sqrt(1 - p^2))/p for real p.
    oracle = (1.0 - math.sqrt(1.0 - 0.25)) / 0.5
    assert oracle == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)
    p = fixed_point(alpha(0.5))
    assert abs(p - oracle) <= 1e-9


def test_fixed_point_of_a_sparse_high_degree_map():
    # Newton on the two nonzero-term Horner sums; the map contracts near its
    # fixed point, so plain iteration from 0 is the reference
    s = parse_symbol("0.3 + 0.2i*z + 0.4*z^3000")
    ref = 0j
    for _ in range(100):
        ref = 0.3 + 0.2j * ref + 0.4 * ref**3000
    assert abs(fixed_point(s) - ref) <= 1e-14


def test_fixed_point_boundary_failure():
    # hyperbolic automorphism: both fixed points on the circle
    s = parse_symbol("(z + 0.5)/(1 + 0.5*z)")
    with pytest.raises(ConvergenceError):
        fixed_point(s)


# ---------------------------------------------------------------------------
# validation


def test_validate_examples():
    d = validate_selfmap(parse_symbol("2*z"))
    assert not d.is_selfmap
    assert d.boundary_sup == pytest.approx(2.0, abs=1e-12)

    d = validate_selfmap(alpha(0.9))
    assert d.is_selfmap

    d = validate_selfmap(parse_symbol("(z^2+z^3)/2"))
    assert d.is_selfmap
    assert d.boundary_sup == pytest.approx(1.0, abs=1e-12)
    assert d.sup_theta == pytest.approx(0.0, abs=1e-12)


def test_validate_sees_high_degree_term():
    # z^4096 is 1 on a 4096-point grid; the degree-sized grid has 32768 points
    d = validate_selfmap(parse_symbol("0.6 - 0.6*z^4096"))
    assert d.grid_size == 32768
    assert not d.is_selfmap
    assert d.boundary_sup == pytest.approx(1.2, abs=1e-9)


@pytest.mark.parametrize("text", [
    "(-0.279376-0.159147i) + (-0.244343-0.035245i)*z^2 + (-0.023460-0.246881i)*z^4095",
    "(0.232255-0.105934i) + (-0.155422-0.067855i)*z^2 + (0.270728+0.043310i)*z^4095",
    "(-0.271485-0.224519i) + (0.230869+0.032257i)*z^3 + (0.114532-0.313512i)*z^4096",
])
def test_validate_finds_highest_of_many_close_peaks(text):
    # ~4096 local maxima of nearly equal height: refining only the top three
    # boundary-grid samples missed the sup of these by up to 1.3e-2.  A
    # 2^20-point grid max is a lower bound within ~4e-5 of the sup.
    s = parse_symbol(text)
    fine = float(np.max(np.abs(circle_values(s, 1 << 20))))
    assert fine - 1e-12 <= validate_selfmap(s).boundary_sup <= fine + 1e-4


@pytest.mark.parametrize("text, is_selfmap", [
    ("(1+0.5*z)/(1+0.5*z)", False),     # the constant 1
    ("(0.5+0.25*z)/(1+0.5*z)", True),   # the constant 0.5
    ("(1i-0.5i*z^2)/(1-0.5*z^2)", False),  # the constant i
])
def test_disguised_constant_is_a_selfmap_iff_inside_the_disk(text, is_selfmap):
    # num = c den: the boundary sup |c| cannot tell |c| = 1 apart
    s = parse_symbol(text)
    assert s.is_constant and not s.is_polynomial
    assert validate_selfmap(s).is_selfmap is is_selfmap


@pytest.mark.parametrize("text, is_constant, is_selfmap", [
    ("0.5+0.00000000001*z", True, True),       # residual 1e-11 <= COEFF_TOL (1 - 0.5)^2
    ("0.5+0.00000000003*z", False, True),
    ("0.99999999995+0.00000000005*z", False, True),  # sup exactly 1, norm 1.414e5
    ("const(0.99999999995)", True, True),      # a bare constant has residual 0
    ("1+0.00000000005*z", True, False),        # |c| = 1: COEFF_TOL decides, as for the verdict
])
def test_constancy_tolerance_shrinks_toward_the_circle(text, is_constant, is_selfmap):
    s = parse_symbol(text)
    assert s.is_constant is is_constant
    assert validate_selfmap(s).is_selfmap is is_selfmap


def test_rejected_symbol_reports_its_excess():
    # a sup just over 1 must not print as 1
    with pytest.raises(NotSelfmapError, match=r"boundary sup = 1\.00000005"):
        require_selfmap(parse_symbol("1.00000005*z"))


def test_diagnostics_cached():
    s = alpha(0.25)
    assert validate_selfmap(s) is validate_selfmap(s)


@pytest.mark.parametrize("stored", [modulus_products, lambda s: (boundary_moduli(s, 64),)],
                         ids=["modulus_products", "boundary_moduli"])
def test_boundary_facts_stored_read_only(stored):
    s = parse_symbol("(z+z^2)/2")
    first = stored(s)
    assert all(a is b for a, b in zip(first, stored(s)))
    for a in first:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_selfmap_scan_shares_the_stored_unshifted_grid():
    s = parse_symbol("0.5 + 0.2*z^3 + 0.2*z^700")
    d = validate_selfmap(s)
    a = boundary_moduli(s, d.grid_size)
    assert np.array_equal(a, np.abs(circle_values(s, d.grid_size)))
    assert d.grid_sup == a.max() and d.sup_theta == 2 * np.pi * np.argmax(a) / d.grid_size


# ---------------------------------------------------------------------------
# printing round-trip


@st.composite
def rational_symbols(draw):
    n = draw(st.integers(1, 4))
    num = [complex(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)))
           for _ in range(n)]
    dd = draw(st.integers(0, 2))
    den = [1.0] + [complex(draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)))
                   for _ in range(dd)]
    return Symbol(np.array(num), np.array(den))


@settings(max_examples=60, deadline=None)
@given(rational_symbols())
def test_print_parse_round_trip(s):
    s2 = parse_symbol(format_symbol(s))
    assert np.array_equal(s.num, s2.num)
    assert np.array_equal(s.den, s2.den)


def test_round_trip_negative_and_complex_coefficients():
    s = Symbol(np.array([0.5, -0.75, 0.1 - 0.3j]), np.array([1.0, 0.25j]))
    s2 = parse_symbol(format_symbol(s))
    assert np.array_equal(s.num, s2.num)
    assert np.array_equal(s.den, s2.den)


def test_symbols_immutable():
    s = alpha(0.5)
    with pytest.raises(ValueError):
        s.num[0] = 1.0


# ---------------------------------------------------------------------------
# rotation normal form


unit_angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
nonzero_reals = st.tuples(st.floats(0.05, 1.0), st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[0] * t[1])


@st.composite
def real_symbols(draw):
    """A real polynomial with no zero coefficient, or a scaled Blaschke factor
    c z^m alpha(r)."""
    if draw(st.booleans()):
        return Symbol(np.array(draw(st.lists(nonzero_reals, min_size=2, max_size=6))))
    c, r, m = draw(nonzero_reals), draw(st.floats(-0.95, 0.95)), draw(st.integers(0, 2))
    assume(abs(r) > 1e-3)
    return Symbol(np.pad([c * r, -c], (m, 0)), np.array([1.0, -r]))


@settings(max_examples=200, deadline=None)
@given(real_symbols(), unit_angles, unit_angles)
def test_rotation_real_rebuilds_rotated_real_symbols(psi, a, b):
    lam, mu = complex(np.exp(1j * a)), complex(np.exp(1j * b))
    s = Symbol(lam * psi.num * mu ** np.arange(psi.num.size),
               psi.den * mu ** np.arange(psi.den.size))
    got = rotation_real(s)
    if not (s.num.imag.any() or s.den.imag.any()):
        assert got is None
        return
    assert got is not None
    lam2, mu2, psi2 = got
    assert abs(abs(lam2) - 1.0) <= 1e-15 and abs(abs(mu2) - 1.0) <= 1e-15
    assert not (psi2.num.imag.any() or psi2.den.imag.any())
    # the bound rotation_real states
    tol = 1e-14 * (s.degree + 1) * max(np.abs(s.num).max(), np.abs(s.den).max())
    num = lam2 * psi2.num * mu2 ** np.arange(psi2.num.size)
    den = psi2.den * mu2 ** np.arange(psi2.den.size)
    assert num.size == s.num.size and den.size == s.den.size
    assert np.max(np.abs(num - s.num)) <= tol
    assert np.max(np.abs(den - s.den)) <= tol
    if abs(lam * mu - 1.0) <= 1e-15 or abs(lam * mu + 1.0) <= 1e-15:
        assert lam2 * mu2 == 1.0  # the sign is chosen for lam mu = 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       st.lists(unit_angles, min_size=3, max_size=3))
def test_rotation_real_rejects_generic_three_terms(mods, angles):
    # c0 + c1 z + c2 z^2 is lam psi(mu z) iff c0 c2 conj(c1)^2 is real
    assume(abs(math.sin(angles[0] + angles[2] - 2.0 * angles[1])) > 1e-6)
    s = Symbol(np.array(mods) * np.exp(1j * np.array(angles)))
    assert rotation_real(s) is None


@settings(max_examples=100, deadline=None)
@given(real_symbols())
def test_rotation_real_leaves_real_symbols(psi):
    assert rotation_real(psi) is None


def test_rotation_real_examples():
    lam, mu, psi = rotation_real(alpha(0.3 + 0.4j))
    assert lam * mu == 1.0
    assert taylor_close(psi, alpha(0.5)) or taylor_close(psi, alpha(-0.5))
    lam, mu, psi = rotation_real(parse_symbol("z*alpha((0.3+0.4i))"))
    assert abs(lam * mu - (0.6 + 0.8j)) <= 1e-15
    assert rotation_real(parse_symbol("(0.2+0.1i) + 0.3*z + 0.2i*z^2")) is None
    # a given mu fits lam only: w = s shares the rotation, another weight does not
    s = parse_symbol("(0.3+0.4i)*z + 0.2i*z^2")
    _, mu, _ = rotation_real(s)
    assert rotation_real(s, mu) is not None
    assert rotation_real(alpha(0.3 + 0.4j), mu) is None
    # phases are fitted without dividing, so subnormal coefficients raise no
    # overflow warning (an error under the pytest settings)
    for text in ("(1e-320i)*z + 0.5*z^2", "4e-324i + 0.5*z"):
        lam, mu, psi = rotation_real(parse_symbol(text))
        assert abs(lam) == pytest.approx(1.0) and abs(mu) == pytest.approx(1.0)
