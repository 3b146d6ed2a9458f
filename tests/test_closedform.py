import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardyop import (
    EllipseDisk,
    NotSelfmapError,
    PreconditionError,
    Symbol,
    alpha,
    alpha_ellipse,
    compose,
    const_distance,
    const_ellipse,
    constant,
    distance,
    identity,
    inner_alpha_distance,
    inner_const_distance,
    inner_symbol_norm,
    kernel_distance,
    norm_bounds,
    norm_schedule,
    p_norm,
    parse_symbol,
    recognize_distance_target,
    recognize_ellipse,
    recognize_opnorm_target,
    recognize_restricted_target,
    rotation_distance,
    rotation_distance_bruteforce,
)

from geometry import contact_points

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


@settings(max_examples=100, deadline=None)
@given(disk_points)
@example(0.0)
@example(-0.6)
@example(0.3 + 0.4j)
@example(1e-160)
def test_inner_const_distance_limits_are_bitwise(x):
    # phi(0) = 0 gives sqrt(P/P) = 1.0 times 1/sqrt(1 - P); p = 0 is the
    # ||C_phi|| branch
    assert inner_const_distance(x) == 1.0 / math.sqrt(1.0 - abs(x) ** 2)
    assert inner_const_distance(0, x) == inner_symbol_norm(x)
    assert inner_const_distance(0.0j, x) == inner_symbol_norm(x)


def test_inner_const_branches_meet_at_b_equal_p_squared():
    # against p = 0.6 the attained branch ends at |phi(0)| = |p|^2 = 0.36
    vals = [inner_const_distance(0.6, 0.36 + d) for d in (-1e-12, 0.0, 1e-12)]
    assert vals == [1.45773797370965, 1.457737973711325, 1.4577379737129998]
    assert vals[1] == inner_symbol_norm(0.36)
    # below it the attained value is at least the essential norm ||C_phi||
    for b in np.linspace(0.0, 0.36, 50, endpoint=False):
        for phase in (1, -1, 1j):
            assert inner_const_distance(0.6 * phase, b * phase) >= inner_symbol_norm(b) - 1e-15


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


def test_rotation_angle_within_tolerance_counts_as_equal():
    # |lam - 1| = 3.1e-12 is over UNIMODULAR_TOL, but the angle, 5e-13 turns,
    # is within ANGLE_TOL of 0: order 1, as for lam == mu
    for sign in (1, -1):
        lam = cmath.exp(sign * 2j * math.pi * 5e-13)
        assert abs(lam - 1.0) > 3e-12
        r = rotation_distance(lam, 1.0)
        assert (r.value, r.case, r.order) == (0.0, "equal", 1)


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


@pytest.mark.parametrize("k", [3, 9, 99])
def test_bruteforce_stops_after_one_period_of_an_exact_root(k):
    # lam^n = 1 to rounding first at n = k, where the scan stops with the max
    # over one period: the k-gon chord 2 cos(pi/2k).  The full scan to depth
    # 1e6 drifted to sqrt(3) + 7.7e-11 for k = 3.
    lam = cmath.exp(2j * math.pi / k)
    n = np.arange(1, 2 * k + 1)
    vals = np.abs(abs(lam) ** n * np.exp(1j * cmath.phase(lam) * n) - 1.0)
    assert np.flatnonzero(vals <= 8.0 * np.finfo(float).eps * n)[0] == k - 1
    brute = rotation_distance_bruteforce(lam, 1.0)
    assert brute == vals[:k].max()
    assert abs(brute - 2.0 * math.cos(math.pi / (2 * k))) <= 1e-15


def _scan_max(lam, mu, depth):
    # the brute force's formula over every n <= depth, in one array
    n = np.arange(1, depth + 1)
    return float(np.abs(abs(lam) ** n * np.exp(1j * cmath.phase(lam) * n)
                        - abs(mu) ** n * np.exp(1j * cmath.phase(mu) * n)).max())


def test_bruteforce_early_exits_return_the_full_scan_max():
    # the contraction and agreement rules stop the growing-chunk scan after
    # tens of powers; both are exact, so the value is bitwise the max over
    # every n <= depth.  Root ratios take |lam| = |mu| < 1, where the powers
    # past one period are smaller, not equal to rounding.
    rng = np.random.default_rng(32)
    for _ in range(40):
        r1, r2 = rng.uniform(0.3, 0.999, 2)
        lam = r1 * cmath.exp(2j * math.pi * rng.uniform())
        mu = r2 * cmath.exp(2j * math.pi * rng.uniform())
        assert rotation_distance_bruteforce(lam, mu, 100_000) == _scan_max(lam, mu, 100_000)
        k = int(rng.integers(2, 100))
        r = rng.uniform(0.5, 0.999)
        lam = r * cmath.exp(2j * math.pi * int(rng.integers(1, k)) / k)
        assert rotation_distance_bruteforce(lam, r, 100_000) == _scan_max(lam, r, 100_000)


def test_bruteforce_off_a_root_scans_the_full_depth():
    # 1e-9 turns off a cube root, no power returns to 1: the scan runs to
    # depth 1e6, and the drifting powers pass the k-gon chord sqrt(3)
    lam = cmath.exp(2j * math.pi * (1.0 / 3.0 + 1e-9))
    assert rotation_distance_bruteforce(lam, 1.0) > math.sqrt(3.0) + 1e-4


def test_rotation_rejects_outside_closed_disk():
    from hardyop import PreconditionError

    with pytest.raises(PreconditionError):
        rotation_distance(1.5, 1.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: rotation_distance(NAN, 1.0),
    lambda: rotation_distance(1.0, complex(0.5, NAN)),
    lambda: norm_bounds(NAN),
    lambda: const_ellipse(NAN),
    lambda: alpha_ellipse(complex(NAN, 0.0)),
    lambda: inner_const_distance(NAN),
    lambda: kernel_distance(NAN, 0),
    lambda: p_norm(alpha(0.5), NAN),
    lambda: inner_const_distance(0.5, NAN),
    lambda: inner_const_distance(0.5, 1.0),
], ids=["rotation-lam", "rotation-mu", "norm_bounds", "const_ellipse", "alpha_ellipse",
        "inner_const_distance", "kernel_distance", "p_norm", "inner_const_distance-phi0",
        "inner_const_distance-phi0-on-circle"])
def test_nan_scalars_are_rejected(call):
    # every comparison with NaN is false, so each precondition is written to pass
    # only in-range values; a NaN never reaches a formula
    with pytest.raises(PreconditionError):
        call()


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
    contact = contact_points(e, thetas)
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

    # lambda = e^{2 pi i/3} has odd order 3: sup_n |lambda^n - 1| = sqrt(3)
    b = parse_symbol("z^3000*alpha(0.5)")
    hit = recognize_distance_target(Symbol(cmath.exp(2j * math.pi / 3) * b.num, b.den), b)
    assert hit.label == "rotation"
    assert hit.value == pytest.approx(math.sqrt(3), abs=1e-15)

    hit = recognize_distance_target(constant(0.0), constant(0.5))
    assert hit.label == "const_const"
    assert hit.value == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    hit = recognize_distance_target(parse_symbol("z^3"), parse_symbol("z^3"))
    assert hit.label == "identical" and hit.value == 0.0

    hit = recognize_distance_target(parse_symbol("z^2"), constant(0.0))
    assert hit.value == 1.0

    assert recognize_distance_target(parse_symbol("(z+z^2)/2"), parse_symbol("z^2")) is None


@pytest.mark.parametrize("text, target, gaps", [
    ("alpha(0.5)", math.sqrt(3), (3.9e-3, 2.6e-4)),
    ("z^2@alpha(0.5)", 1.2909944487358056, (1.6e-2, 1.4e-3)),
])
def test_inner_symbol_against_c0(text, target, gaps):
    # inner phi with phi(0) != 0 against C_0: the distance is ||C_phi||
    s = parse_symbol(text)
    for a, b in ((s, constant(0)), (constant(0), s)):
        hit = recognize_distance_target(a, b)
        assert hit.label == "inner_const"
        assert hit.value == pytest.approx(target, abs=1e-15)
    rep = norm_schedule("distance", {"a": s, "b": constant(0)}, [64, 256])
    assert rep.target_label == "inner_const"
    assert all(v <= target + 1e-9 for v in rep.values)
    assert rep.gaps[0] > rep.gaps[1] > 0
    assert rep.gaps == pytest.approx(gaps, rel=0.05)
    # b = const(1e-13) fixes the origin, but the cross-product ratio against
    # it fits any a; the true distance here is no rotation value
    assert recognize_distance_target(parse_symbol("0.3+0.5*z"), constant(1e-13)) is None


@pytest.mark.parametrize("text", ["0.5*z^2", "0.5i*z", "(z^2+z^3)/2", "0.8*(z*alpha(0.5))"])
def test_symbol_fixing_zero_against_c0_reads_its_restricted_target(text):
    # (C_phi - C_0) f = (f - f(0)) o phi: the distance is ||C_phi on zH^2||;
    # the order (0, lambda u) reads the same value as a rotation
    s = parse_symbol(text)
    want = recognize_restricted_target(s)
    hit = recognize_distance_target(s, constant(0))
    assert (hit.value, hit.label) == (want, "restricted")
    hit = recognize_distance_target(constant(0), s)
    assert hit.value == want
    assert hit.label == ("restricted" if text == "(z^2+z^3)/2" else "rotation")


def test_restricted_distance_leaves_the_other_patterns():
    for text in ("(z+z^2)/2", "z/2+0.25"):
        s = parse_symbol(text)
        assert recognize_distance_target(s, constant(0)) is None
        assert recognize_distance_target(constant(0), s) is None
    hit = recognize_distance_target(parse_symbol("z^2"), constant(0))
    assert (hit.value, hit.label) == (1.0, "inner_const")
    hit = recognize_distance_target(alpha(0.5), constant(0))
    assert (hit.value, hit.label) == (math.sqrt(3), "inner_const")


# (inner phi, constant p, ||C_phi - C_p||): attained for |phi(0)| < |p|^2, and
# ||C_phi|| = sqrt((1 + |phi(0)|)/(1 - |phi(0)|)) from there on
INNER_CONST = [
    ("alpha(0.2)", "0.6", 3 * math.sqrt(3) / 4),
    ("alpha(0.2)", "-0.6", 3 * math.sqrt(3) / 4),
    ("alpha(0.2)", "0.6i", 3 * math.sqrt(3) / 4),
    ("alpha(0.5)", "0.3", math.sqrt(3)),
    ("alpha(0.5)", "0.8", 1.8490006540840973),
    ("z^2@alpha(0.3)", "0.7", 1.4062690995013412),
    ("blaschke(0.5, 0.3i)", "0.9", 2.300375909130565),
    ("alpha(0.37)", "0.6", 1.4746535778287642),  # |phi(0)| just above |p|^2
]


@pytest.mark.parametrize("text, p, target", INNER_CONST)
def test_inner_symbol_against_any_constant(text, p, target):
    s, c = parse_symbol(text), parse_symbol(p)
    for a, b in ((s, c), (c, s)):
        hit = recognize_distance_target(a, b)
        assert hit.label == "inner_const"
        assert abs(hit.value - target) <= 1e-15
    assert distance(s, c, 64) <= target + 1e-9


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
    # a constant term within the origin rule does not hide the first power
    for c in ("5e-14", "5e-13"):
        assert recognize_restricted_target(parse_symbol(f"{c} + (z^2+z^3)/2")) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)
    # 500 powers, each truncated to the 501 coefficients the overlap reads
    assert recognize_restricted_target(parse_symbol("0.5*z + 0.5*z^500")) == pytest.approx(
        math.sqrt(0.5), abs=1e-15)
    # at the degree cap the expansion adds two shifted copies per power
    assert recognize_restricted_target(parse_symbol("0.5*z + 0.5*z^4096")) == pytest.approx(
        math.sqrt(0.5), abs=1e-15)


def test_restriction_and_its_target_share_the_origin_rule():
    # |phi(0)| = 5e-13 fixes the origin for the restriction, so the target applies too
    s = parse_symbol("5e-13 + 0.5*z")
    rep = norm_schedule("restricted", {"s": s}, [8, 16])
    assert recognize_restricted_target(s) == pytest.approx(0.5, abs=1e-15)
    assert rep.target == recognize_restricted_target(s)
    assert rep.values[-1] == pytest.approx(0.5, abs=1e-12)
    # past the rule, both refuse
    s = parse_symbol("5e-12 + 0.5*z")
    assert recognize_restricted_target(s) is None
    with pytest.raises(PreconditionError, match="fixing the origin"):
        norm_schedule("restricted", {"s": s}, [8, 16])


def test_recognize_opnorm_targets():
    assert recognize_opnorm_target(constant(0.5)) == pytest.approx(
        1 / math.sqrt(0.75), abs=1e-15)
    assert recognize_opnorm_target(parse_symbol("(z+z^2)/2")) == 1.0
    assert recognize_opnorm_target(alpha(0.3)) == pytest.approx(
        math.sqrt(1.3 / 0.7), abs=1e-15)
    assert recognize_opnorm_target(parse_symbol("(z+0.2)/2")) is None


@pytest.mark.parametrize("recognize, args", [
    (recognize_opnorm_target, (constant(1),)),
    (recognize_ellipse, (constant(1),)),
    (recognize_distance_target, (constant(1), identity())),
    (recognize_distance_target, (identity(), constant(1))),
], ids=["opnorm", "ellipse", "distance-a", "distance-b"])
def test_recognizers_reject_non_selfmaps(recognize, args):
    # one message for every caller, not that of a formula's parameter check
    with pytest.raises(NotSelfmapError, match="not a selfmap"):
        recognize(*args)


def test_recognize_ellipse():
    e = recognize_ellipse(constant(0.5))
    assert e is not None and e.focus_b == 1.0
    e = recognize_ellipse(parse_symbol("(0.5-z)/(1-0.5*z)"))
    assert e is not None and e.focus_a == -1.0
    assert recognize_ellipse(parse_symbol("z^2")) is None


# ---------------------------------------------------------------------------
# the rotation sup's tail rule and a scalar on the circle


def _scan_count(monkeypatch, call):
    # powers the brute force scans: the sizes of its np.arange chunks
    sizes = []
    arange = np.arange

    def counting(*args, **kwargs):
        out = arange(*args, **kwargs)
        sizes.append(out.size)
        return out

    with monkeypatch.context() as m:
        m.setattr(np, "arange", counting)
        value = call()
    return value, sum(sizes)


@pytest.mark.parametrize("x", [1.0, 1 + 2.2e-16, 1 - 2.2e-16, 1 + 1e-13])
def test_rotation_on_the_circle_against_a_contraction_scales_to_one(x, monkeypatch):
    # |x^n - 0.3^n| with |x| taken as 1 is |1 - (0.3/x)^n|, whose sup is 1;
    # at modulus 1 + 2.2e-16 the powers drifted to 1 + 2.2e-10 over a scan of
    # 1e6 powers.  Scaled to 1, the terms round to 1.0 once |0.3/x|^n < 2^-54,
    # and so does the tail 1 + |0.3/x|^n, in the first chunk.
    for lam, mu in ((x, 0.3), (0.3, x)):
        r, scanned = _scan_count(monkeypatch, lambda: rotation_distance(lam, mu))
        assert r.case == "numeric"
        assert abs(r.value - 1.0) <= 1e-15
        assert scanned == 64


def test_rotation_tail_rule_stops_near_the_circle(monkeypatch):
    # both scalars inside: 0.999999^65 + |mu|^65 is under the value found at
    # n <= 64, so the scan ends there with the full-scan max
    for lam, mu, want in ((0.999999 * cmath.exp(1j), 0.5, 1.127195192561139),
                          (0.999999, 0.3, 0.9999874686249994)):
        value, scanned = _scan_count(monkeypatch, lambda: rotation_distance_bruteforce(lam, mu))
        assert value == want and scanned == 64
    # on the circle against 0.999: 1 + 0.999^n0 reaches the max of
    # |1 - 0.999^n| = 1.0 at the chunk end n0 = 65473
    value, scanned = _scan_count(monkeypatch, lambda: rotation_distance(1.0, 0.999).value)
    assert value == 1.0 and scanned == 65_472
    assert rotation_distance(1j, 0.5).value == 1.25


def test_rotation_target_is_invariant_under_an_inner_map_fixing_zero():
    # C_u is an isometry for inner u fixing 0, so composing both symbols with
    # u on the right keeps the distance; the composed pair forms lambda with
    # |lambda| = 1 + 2.2e-16, which read 1.0000000002220446 before scaling
    a, b = parse_symbol("z"), parse_symbol("(0.3+0.027i)*z")
    u = parse_symbol("z*alpha((-0.528-0.324i))")
    plain = recognize_distance_target(a, b)
    composed = recognize_distance_target(compose(a, u), compose(b, u))
    assert plain.label == composed.label == "rotation"
    assert abs(plain.value - composed.value) <= 1e-12
    assert plain.value == pytest.approx(1.0000000000186784, abs=1e-15)


def test_mixed_rotation_schedule_reads_target_one():
    rep = norm_schedule("distance", {"a": parse_symbol("1.0000000000001*z"),
                                     "b": parse_symbol("0.3*z")}, [16, 64])
    assert rep.target_label == "rotation" and rep.target == 1.0
    assert abs(rep.values[-1] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# recognizer soundness over structured pairs


def _times_z(s):
    return Symbol(np.concatenate([[0], s.num]), s.den)


def _shape(desc):
    kind, k, r = desc
    return {"zk": lambda: parse_symbol(f"z^{k}"), "z_alpha": lambda: _times_z(alpha(r)),
            "alpha": lambda: alpha(r), "alpha_z2": lambda: compose(alpha(r), parse_symbol("z^2"))}[kind]()


def _pair(family, u, x, y):
    if family == "alpha_u":
        return compose(alpha(x), u), u
    if family == "scalar":
        return Symbol(x * u.num, u.den), Symbol(y * u.num, u.den)
    if family == "const":
        return u, constant(x)
    if family == "alpha_alpha":
        return compose(alpha(x), u), compose(alpha(y), u)
    return constant(x), constant(y)


# moduli under about 1e-65 leave a tiny leading denominator coefficient in
# alpha compositions, and nearby tiny points put two constants close together
_points = st.builds(cmath.rect,
                    st.one_of(st.just(0.0), st.floats(1e-300, 1e-9), st.floats(1e-9, 0.7)),
                    st.floats(0.0, 2 * math.pi))
_unimodular = st.builds(cmath.rect, st.just(1.0), st.floats(0.0, 2 * math.pi))


@st.composite
def _scalars(draw):
    # (x, y, ratio of order m): inside, one on the circle, or a root ratio
    mode = draw(st.sampled_from(["inside", "circle", "root"]))
    if mode == "root":
        m = draw(st.integers(2, 8))
        x = draw(_unimodular)
        return x, x * cmath.exp(2j * math.pi * draw(st.integers(1, m - 1)) / m), m
    x, y = draw(_unimodular if mode == "circle" else _points), draw(_points)
    return (x, y, None) if draw(st.booleans()) else (y, x, None)


@st.composite
def _cases(draw):
    shape = (draw(st.sampled_from(["zk", "z_alpha", "alpha", "alpha_z2"])),
             draw(st.integers(1, 4)), draw(_points))
    family = draw(st.sampled_from(["alpha_u", "scalar", "const", "alpha_alpha", "const_const"]))
    x, y, order = draw(_scalars()) if family == "scalar" else (draw(_points), draw(_points), None)
    right = ("zk", 2, 0.0) if draw(st.booleans()) else ("z_alpha", 1, draw(_points))
    return family, shape, x, y, order, right, draw(st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_cases())
@example(("scalar", ("zk", 1, 0.0), 1.0, 0.3 + 0.027j, None, ("z_alpha", 1, -0.528 - 0.324j), False))
@example(("scalar", ("zk", 3, 0.0), 1j, 1j * cmath.exp(0.8j * math.pi), 5, ("zk", 2, 0.0), False))
@example(("scalar", ("zk", 2, 0.0), -1.0, cmath.exp(1j * math.pi / 3), 3, ("z_alpha", 1, 0.4j), True))
@example(("const", ("alpha", 1, 0.2), 0.6, 0.0, None, ("zk", 2, 0.0), False))
@example(("const", ("alpha_z2", 1, 0.5), 0.3, 0.0, None, ("z_alpha", 1, 0.4j), True))
def test_recognized_targets_bound_the_compressions(case):
    family, shape, x, y, order, right, swap = case
    a, b = _pair(family, _shape(shape), x, y)
    a, b = (b, a) if swap else (a, b)
    hit = recognize_distance_target(a, b)
    # C_u is an isometry for inner u fixing 0: the target must not move
    u = _shape(right)
    moved = recognize_distance_target(compose(a, u), compose(b, u))
    assert (hit is None) == (moved is None)
    if hit is None:
        return
    assert abs(hit.value - moved.value) <= 1e-12
    for N in (32, 128):
        assert distance(a, b, N) <= hit.value + 1e-9
    # exact at finite N: two constants (|p| <= 0.7, tails below 1e-19), and
    # a root-of-unity ratio on z^k, whose period is inside the N=64 window
    if hit.label == "const_const" or (hit.label == "rotation" and order and shape[0] == "zk"):
        assert hit.value - distance(a, b, 64) <= 1e-12
