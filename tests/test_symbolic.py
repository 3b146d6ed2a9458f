import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from hardyop import (
    ConvergenceError,
    DegreeCapError,
    ParseError,
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
    assert lead.is_selfmap()


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


# ---------------------------------------------------------------------------
# boundary evaluation


def test_boundary_eval_examples():
    assert identity()(np.exp(1j * 0.0)) == pytest.approx(1.0)
    s = parse_symbol("(z^2+z^3)/2")
    assert s(np.exp(1j * 0.0)) == pytest.approx(1.0)


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


def test_iterate_examples():
    s = parse_symbol("z/2 + 0.25")
    assert taylor_close(iterate(s, 1), s, tol=0)
    assert taylor_close(iterate(s, 2), parse_symbol("z/4 + 0.375"), tol=1e-14)
    assert taylor_close(iterate(parse_symbol("z^2"), 3), parse_symbol("z^8"), tol=1e-14)


def test_iterate_degree_cap(monkeypatch):
    monkeypatch.setenv("HARDYOP_MAX_DEGREE", "8")
    with pytest.raises(DegreeCapError):
        iterate(parse_symbol("z^2"), 4)


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


def test_diagnostics_cached():
    s = alpha(0.25)
    assert s.diagnostics() is s.diagnostics()
    assert validate_selfmap(s) is s.diagnostics()


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
