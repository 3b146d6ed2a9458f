import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from hardyop import (
    PreconditionError,
    alpha,
    blaschke,
    circle_values,
    h2_inner,
    h2_norm,
    inner_multiple,
    is_inner,
    kernel_coeffs,
    kernel_distance,
    p_norm,
    parse_symbol,
    poisson,
    taylor,
)

PHI23 = parse_symbol("(z^2+z^3)/2")

disk_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# coefficient norms and inner products


def test_h2_norm_examples():
    assert h2_norm([0, 1]) == 1.0
    assert h2_norm(taylor(PHI23, 8)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    # inner functions have unit coefficient norm; 200 terms beat the geometric tail
    assert h2_norm(taylor(alpha(0.3), 200)) == pytest.approx(1.0, abs=1e-12)


def test_h2_inner_monomials():
    assert h2_inner([0, 0, 1], [0, 0, 0, 1]) == 0


def test_h2_inner_power_overlap_oracle():
    # phi^2 and phi^3 for phi = (z^2+z^3)/2 overlap only at degree 6:
    # (1/4) * conj(1/8) = 1/32.
    phi = np.array([0, 0, 0.5, 0.5], dtype=complex)
    phi2 = np.convolve(phi, phi)
    phi3 = np.convolve(phi2, phi)
    assert phi2[6] * np.conj(phi3[6]) == 0.03125
    assert h2_inner(phi2, phi3) == 0.03125


@settings(max_examples=30, deadline=None)
@given(disk_points)
def test_reproducing_property(p):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    expected = npp.polyval(p, f)
    got = h2_inner(f, kernel_coeffs(p, 6))
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_coeffs_examples():
    assert np.array_equal(kernel_coeffs(0.0, 4), np.array([1, 0, 0, 0], dtype=complex))
    assert np.allclose(kernel_coeffs(0.5, 3), [1, 0.5, 0.25], atol=1e-15)
    norm2 = h2_norm(kernel_coeffs(0.5, 200)) ** 2
    assert norm2 == pytest.approx(1 / (1 - 0.25), abs=1e-12)


def test_kernel_distance_examples():
    assert kernel_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert kernel_distance(0.0, 0.5) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)


def test_kernel_distance_series_cross_check():
    p1, p2 = 0.3, 0.5j
    diff = kernel_coeffs(p1, 200) - kernel_coeffs(p2, 200)
    assert kernel_distance(p1, p2) == pytest.approx(h2_norm(diff), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(disk_points, disk_points)
def test_kernel_distance_symmetry(p1, p2):
    assert kernel_distance(p1, p2) == pytest.approx(kernel_distance(p2, p1), abs=1e-13)


# ---------------------------------------------------------------------------
# Poisson kernel


def test_poisson_examples():
    for u in (1.0, 1j, np.exp(0.7j)):
        assert poisson(0.0, u) == pytest.approx(1.0, abs=1e-15)
    assert poisson(0.3, 1.0) == pytest.approx(13 / 7, abs=1e-12)


def test_poisson_mean_value():
    thetas = 2 * np.pi * np.arange(1024) / 1024
    vals = [poisson(0.3, np.exp(1j * t)) for t in thetas]
    assert np.mean(vals) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(disk_points, st.floats(0, 2 * math.pi))
def test_poisson_positive_and_bounded(z, t):
    u = complex(math.cos(t), math.sin(t))
    val = poisson(z, u)
    assert val > 0
    assert val <= (1 + abs(z)) / (1 - abs(z)) + 1e-12


# ---------------------------------------------------------------------------
# p-norms


def test_p_norm_identity_symbol():
    for p in (2, 3, 7.5, math.inf):
        assert p_norm(parse_symbol("z"), p).value == pytest.approx(1.0, abs=1e-12)


def test_p_norm_four_oracle():
    # mean of |phi|^4 = mean (2+2cos)^2/16 = (4 + 0 + 2)/16 = 3/8 by hand
    res = p_norm(PHI23, 4)
    assert res.value == pytest.approx((3 / 8) ** 0.25, abs=1e-10)
    assert res.est_error <= 1e-10


def test_p_norm_sup():
    res = p_norm(PHI23, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_p_norm_monotone_in_p():
    for text in ("(z+z^2)/2", "(z^2+z^3)/2", "alpha(0.4)", "z/2"):
        s = parse_symbol(text)
        vals = [p_norm(s, p).value for p in (2, 3, 4, 8, 16, math.inf)]
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-9


@pytest.mark.parametrize("p", [2, 4, 8])
def test_p_norm_high_degree_term_not_aliased(p):
    # |phi|^p is a trigonometric polynomial of degree 2048 p, so its mean over
    # K = 4096 p > 2048 p points is exact
    s = parse_symbol("0.5 + 0.2*z^3 + 0.2*z^4096")
    K = 4096 * p
    vals = s(np.exp(2j * np.pi * np.arange(K) / K))
    assert abs(p_norm(s, p).value - np.mean(np.abs(vals) ** p) ** (1 / p)) <= 1e-10


@pytest.mark.parametrize("p", [2, 4, 8])
def test_p_norm_degree_4095_symbol(p):
    # z^4095 must not alias to z^-1; the mean over K = 4096 p > 4095 p / 2
    # points is exact (circle_values agrees with Horner, see test_symbolic)
    s = parse_symbol("(-0.279376-0.159147i) + (-0.244343-0.035245i)*z^2 "
                     "+ (-0.023460-0.246881i)*z^4095")
    vals = np.abs(circle_values(s, 4096 * p))
    assert abs(p_norm(s, p).value - np.mean(vals ** p) ** (1 / p)) <= 1e-10


def test_p_norm_rejects_small_p():
    with pytest.raises(PreconditionError):
        p_norm(PHI23, 1.5)


# ---------------------------------------------------------------------------
# inner functions


def test_is_inner_examples():
    v = is_inner(alpha(0.5))
    assert v.is_inner and v.margin <= 1e-14
    v = is_inner(parse_symbol("z/2"))
    assert not v.is_inner
    assert v.margin == pytest.approx(0.75, abs=1e-15)  # |den|^2 - |num|^2 = 1 - 1/4
    assert is_inner(parse_symbol("z*alpha(0.5)")).is_inner


def test_is_inner_exact_agrees_with_numeric_on_random_blaschke():
    rng = np.random.default_rng(3)
    for _ in range(100):
        deg = rng.integers(1, 6)
        pts = rng.uniform(-0.8, 0.8, deg) + 1j * rng.uniform(-0.8, 0.8, deg)
        pts = [p for p in pts if abs(p) < 0.85]
        s = blaschke(pts, lead_power=int(rng.integers(0, 2)))
        assert is_inner(s).is_inner
        assert np.max(np.abs(np.abs(circle_values(s, 4096)) - 1.0)) < 1e-6


def test_inner_multiple():
    ok, mag = inner_multiple(parse_symbol("0.7*z^3"))
    assert ok and mag == pytest.approx(0.7, abs=1e-15)
    ok, mag = inner_multiple(parse_symbol("0.3*z*alpha(0.4)"))
    assert ok and mag == pytest.approx(0.3, abs=1e-13)
    assert not inner_multiple(parse_symbol("(z+z^2)/2"))[0]
    assert not inner_multiple(parse_symbol("const(0)"))[0]


def test_inner_fixing_origin_is_isometry():
    # ||f o phi||_2 = ||f||_2 for inner phi with phi(0) = 0
    rng = np.random.default_rng(11)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    K = 4096
    thetas = 2 * np.pi * np.arange(K) / K
    for text in ("z^2", "z*alpha(0.5)"):
        s = parse_symbol(text)
        vals = npp.polyval(s(np.exp(1j * thetas)), f)
        lhs = math.sqrt(float(np.mean(np.abs(vals) ** 2)))
        assert lhs == pytest.approx(h2_norm(f), abs=1e-10)


def test_two_norm_equals_sup_norm_iff_inner_multiple():
    for text in ("z^2", "0.7*z^3", "alpha(0.5)", "z*alpha(0.3)"):
        s = parse_symbol(text)
        assert abs(p_norm(s, 2).value - p_norm(s, math.inf).value) <= 1e-8
    for text in ("(z+z^2)/2", "(z^2+z^3)/2", "z/2 + 0.25"):
        s = parse_symbol(text)
        assert p_norm(s, 2).value < p_norm(s, math.inf).value - 0.01
