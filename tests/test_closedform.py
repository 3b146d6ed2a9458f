import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyop import (
    EllipseDisk,
    alpha,
    alpha_ellipse,
    const_distance,
    const_ellipse,
    constant,
    distance,
    inner_alpha_distance,
    inner_const_distance,
    inner_symbol_norm,
    kernel_distance,
    norm_bounds,
    parse_symbol,
    recognize_distance_target,
    recognize_ellipse,
    recognize_opnorm_target,
    recognize_restricted_target,
    rotation_distance,
    rotation_distance_bruteforce,
)

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# scalar formulas


def test_norm_bounds_examples():
    assert norm_bounds(0.0) == (1.0, 1.0)
    lo, hi = norm_bounds(0.5)
    assert lo == pytest.approx(1.15470054, abs=1e-8)
    assert hi == pytest.approx(math.sqrt(3), abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(disk_points)
def test_norm_bounds_ordered(p):
    lo, hi = norm_bounds(p)
    assert lo <= hi + 1e-15
    assert inner_symbol_norm(p) == hi


def test_inner_const_distance_examples():
    assert inner_const_distance(0.0) == 1.0
    assert inner_const_distance(0.5) == pytest.approx(1.1547005, abs=1e-7)
    assert inner_const_distance(0.8) == pytest.approx(1 / 0.6, abs=1e-12)


def test_inner_alpha_distance_examples():
    assert inner_alpha_distance(0.0) == 2.0
    assert inner_alpha_distance(0.6) == pytest.approx(2.5, abs=1e-12)
    assert inner_alpha_distance(0.5) == pytest.approx(2.3094011, abs=1e-7)


def test_const_distance_matches_kernel_distance():
    assert const_distance(0.0, 0.5) == kernel_distance(0.0, 0.5)
    assert const_distance(0.2j, 0.2j) == 0.0


def test_const_distance_matches_compression():
    rng = np.random.default_rng(2)
    for _ in range(6):
        p1 = complex(*rng.uniform(-0.6, 0.6, 2))
        p2 = complex(*rng.uniform(-0.6, 0.6, 2))
        d = distance(constant(p1), constant(p2), 64)
        assert d == pytest.approx(const_distance(p1, p2), abs=1e-9)


# ---------------------------------------------------------------------------
# rotation distances


def test_rotation_examples():
    r = rotation_distance(1.0, -1.0)
    assert r.value == 2.0 and r.case == "even_root" and r.order == 2
    r = rotation_distance(cmath.exp(2j * math.pi / 3), 1.0)
    assert r.value == pytest.approx(math.sqrt(3), abs=1e-12)
    assert r.case == "odd_root" and r.order == 3
    assert rotation_distance(0.5j, 0.5j).value == 0.0
    assert rotation_distance(1j, 1.0).value == 2.0


def test_rotation_irrational_angle_gives_two():
    lam = cmath.exp(1j)  # angle 1/(2 pi) of a turn: irrational
    r = rotation_distance(lam, 1.0)
    assert r.case == "not_root" and r.value == 2.0


def test_rotation_numeric_branch_contractive():
    # sup_n |0.5^n - 0.3^n| is attained at n = 1
    r = rotation_distance(0.5, 0.3)
    assert r.case == "numeric"
    assert r.value == pytest.approx(0.2, abs=1e-15)
    # sup_n |(i)^n - 0.5^n|: n = 2 gives |-1 - 0.25| = 1.25
    r = rotation_distance(1j, 0.5)
    assert r.value == pytest.approx(1.25, abs=1e-15)


def test_rotation_exact_branch_matches_bruteforce():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(2, 50))
        a = int(rng.integers(1, k))
        lam = cmath.exp(2j * math.pi * a / k)
        exact = rotation_distance(lam, 1.0).value
        brute = rotation_distance_bruteforce(lam, 1.0, depth=1_000_000)
        assert abs(exact - brute) <= 1e-9


def test_rotation_rejects_outside_closed_disk():
    from hardyop import PreconditionError

    with pytest.raises(PreconditionError):
        rotation_distance(1.5, 1.0)


# ---------------------------------------------------------------------------
# ellipses


def test_const_ellipse_degenerate():
    e = const_ellipse(0.0)
    assert e.degenerate and e.closed
    assert e.major_len == 1.0 and e.minor_len == 0.0
    assert e.focus_a == 0.0 and e.focus_b == 1.0


def test_const_ellipse_values():
    e = const_ellipse(0.5)
    assert e.major_len == pytest.approx(1.1547005, abs=1e-7)
    assert e.minor_len == pytest.approx(0.5773503, abs=1e-7)
    assert e.closed and not e.degenerate


def test_alpha_ellipse_values():
    e = alpha_ellipse(0.0)
    assert e.degenerate and e.closed
    assert (e.focus_a, e.focus_b) == (-1.0, 1.0)
    e = alpha_ellipse(0.6)
    assert e.major_len == pytest.approx(2.5, abs=1e-12)
    assert e.minor_len == pytest.approx(1.5, abs=1e-12)
    assert not e.closed and not e.degenerate


@settings(max_examples=60, deadline=None)
@given(disk_points)
def test_alpha_ellipse_axis_ratio(p):
    e = alpha_ellipse(p)
    assert e.minor_len / e.major_len == pytest.approx(abs(p), abs=1e-12)
    dist = abs(e.focus_a - e.focus_b)
    # squared form: stable for near-degenerate disks
    assert e.minor_len**2 + dist**2 == pytest.approx(e.major_len**2, rel=1e-12)


def test_ellipse_invariant_enforced():
    with pytest.raises(ValueError):
        EllipseDisk(0.0, 1.0, major_len=2.0, minor_len=1.0, degenerate=False, closed=True)
    with pytest.raises(ValueError):
        EllipseDisk(0.0, 2.0, major_len=1.0, minor_len=0.0, degenerate=True, closed=True)


def test_segment_support_values():
    e = const_ellipse(0.0)  # the segment [0, 1]
    assert e.support([0.0])[0] == pytest.approx(1.0, abs=1e-15)
    assert e.support([math.pi])[0] == pytest.approx(0.0, abs=1e-15)
    assert e.support([math.pi / 2])[0] == pytest.approx(0.0, abs=1e-12)


def test_ellipse_boundary_on_support_lines():
    e = alpha_ellipse(0.5)
    thetas = np.linspace(0, 2 * math.pi, 90)
    contact = e.contact_points(thetas)
    h = e.support(thetas)
    assert np.max(np.abs((np.conj(contact) * np.exp(1j * thetas)).real - h)) <= 1e-12


# ---------------------------------------------------------------------------
# recognizers


def test_recognize_distance_patterns():
    hit = recognize_distance_target(parse_symbol("z^2"), constant(0.5))
    assert hit.label == "inner_const"
    assert hit.value == pytest.approx(1 / math.sqrt(0.75), abs=1e-15)

    hit = recognize_distance_target(alpha(0.5), parse_symbol("z"))
    assert hit.label == "automorphism_pair"
    assert hit.value == pytest.approx(2 / math.sqrt(0.75), abs=1e-15)

    hit = recognize_distance_target(parse_symbol("z"), alpha(0.5))
    assert hit.label == "automorphism_pair"

    hit = recognize_distance_target(parse_symbol("i*z"), parse_symbol("z"))
    assert hit.label == "rotation" and hit.value == 2.0

    hit = recognize_distance_target(constant(0.0), constant(0.5))
    assert hit.label == "const_const"
    assert hit.value == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    hit = recognize_distance_target(parse_symbol("z^3"), parse_symbol("z^3"))
    assert hit.label == "identical" and hit.value == 0.0

    hit = recognize_distance_target(parse_symbol("z^2"), constant(0.0))
    assert hit.value == 1.0

    assert recognize_distance_target(parse_symbol("(z+z^2)/2"), parse_symbol("z^2")) is None


def test_recognize_alpha_composed_pair():
    # alpha_p o phi against inner phi fixing 0
    phi = parse_symbol("z^2")
    composed = parse_symbol("alpha(0.4) @ z^2")
    hit = recognize_distance_target(composed, phi)
    assert hit.label == "automorphism_pair"
    assert hit.value == pytest.approx(inner_alpha_distance(0.4), abs=1e-13)


def test_recognize_restricted_targets():
    assert recognize_restricted_target(parse_symbol("z^2")) == 1.0
    assert recognize_restricted_target(parse_symbol("0.7*z^3")) == pytest.approx(0.7, abs=1e-15)
    assert recognize_restricted_target(parse_symbol("(z^2+z^3)/2")) == pytest.approx(
        1 / math.sqrt(2), abs=1e-15)
    assert recognize_restricted_target(parse_symbol("(z+z^2)/2")) is None
    assert recognize_restricted_target(parse_symbol("z/2 + 0.25")) is None
    # 500 powers, each truncated to the 501 coefficients the overlap reads
    assert recognize_restricted_target(parse_symbol("0.5*z + 0.5*z^500")) == pytest.approx(
        math.sqrt(0.5), abs=1e-15)


def test_recognize_opnorm_targets():
    assert recognize_opnorm_target(constant(0.5)) == pytest.approx(
        1 / math.sqrt(0.75), abs=1e-15)
    assert recognize_opnorm_target(parse_symbol("(z+z^2)/2")) == 1.0
    assert recognize_opnorm_target(alpha(0.3)) == pytest.approx(
        math.sqrt(1.3 / 0.7), abs=1e-15)
    assert recognize_opnorm_target(parse_symbol("(z+0.2)/2")) is None


def test_recognize_ellipse():
    e = recognize_ellipse(constant(0.5))
    assert e is not None and e.focus_b == 1.0
    e = recognize_ellipse(parse_symbol("(0.5-z)/(1-0.5*z)"))
    assert e is not None and e.focus_a == -1.0
    assert recognize_ellipse(parse_symbol("z^2")) is None
