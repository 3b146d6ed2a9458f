import math
import warnings

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
    constant,
    h2_inner,
    h2_norm,
    inner_multiple,
    is_inner,
    kernel_distance,
    p_norm,
    parse_symbol,
    taylor,
    validate_selfmap,
)
from hardyop import hardy, symbolic
from hardyop.hardy import pullback_h2
from hardyop.symbolic import identity, poly_product, powers, sym_mul

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


def test_power_overlaps_read_powers_cut_to_the_symbol():
    # <phi, phi^n> for n = 2..n_max from powers cut to phi's length are those
    # of the full expansions; n_max < 2 leaves no power to overlap
    phi = np.array([0, 0.5, 0.5], dtype=complex)
    full, expect = np.ones(1, dtype=complex), []
    for _ in range(4):
        full = np.convolve(full, phi)
        expect.append(h2_inner(phi, full))
    assert list(hardy.power_overlaps(phi, 4)) == expect[1:]
    assert expect[1] == 0.125
    assert list(hardy.power_overlaps(phi, 1)) == []


@pytest.mark.parametrize("c", [
    [0.5, 0, 0, 0.25j, 0, -0.1],      # sparse, nonzero constant term
    [0, 0.3, 0.2 - 0.1j, 0.1, 0.05],  # dense, vanishing at 0
    [0.2, 0.3, 0.2 - 0.1j, 0.1],      # no zero coefficient: one convolution
])
def test_powers_match_truncated_convolutions(c):
    c = np.array(c, dtype=complex)
    assert np.max(np.abs(poly_product(c, c[::-1]) - np.convolve(c, c[::-1]))) <= 1e-15
    for length in (3, 12):
        ref = np.ones(1, dtype=complex)
        for p in powers(c, 5, length):
            ref = np.convolve(ref, c)[:length]
            assert p.shape == ref.shape
            assert np.max(np.abs(p - ref)) <= 1e-15


def test_two_term_product_is_the_convolution_bitwise():
    # 0.4 + 0.5 z^4000 times its reflection: no output coefficient has more
    # than two terms, and the sparse product adds two shifted copies
    c = np.zeros(4001, dtype=complex)
    c[0], c[4000] = 0.4, 0.5
    refl = np.conj(c[::-1])
    full = np.convolve(c, refl)
    assert np.array_equal(poly_product(c, refl), full)
    assert np.array_equal(poly_product(c, refl, 4001), full[:4001])


@settings(max_examples=30, deadline=None)
@given(disk_points)
def test_reproducing_property(p):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    expected = npp.polyval(p, f)
    got = h2_inner(f, np.conj(p) ** np.arange(6))  # reproducing kernel at p
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# kernels


def test_kernel_distance_examples():
    assert kernel_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert kernel_distance(0.0, 0.5) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)


def test_kernel_distance_series_cross_check():
    p1, p2 = 0.3, 0.5j
    k1, k2 = (np.conj(p) ** np.arange(200) for p in (p1, p2))
    assert h2_norm(k2) ** 2 == pytest.approx(1 / (1 - 0.25), abs=1e-12)
    assert kernel_distance(p1, p2) == pytest.approx(h2_norm(k1 - k2), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(disk_points, disk_points)
def test_kernel_distance_symmetry(p1, p2):
    assert kernel_distance(p1, p2) == pytest.approx(kernel_distance(p2, p1), abs=1e-13)


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


@pytest.mark.parametrize("p", [2, 4, math.inf])
def test_p_norm_of_the_zero_symbol(p):
    # sup = 0: finite p returns before dividing by the sup, and inf reads the sup itself
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = p_norm(constant(0), p)
    assert res.value == 0.0 and res.est_error == 0.0


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


def _sampled_p_norm(s, p):
    """p_norm's nested ladder with every grid sampled by circle_values, nothing stored."""
    d = validate_selfmap(s)
    sup = d.boundary_sup
    return hardy._grid_ladder(lambda B, shift: (np.abs(circle_values(s, B, shift)) / sup) ** p,
                              d.grid_size, 1e-10, lambda mean: sup * mean ** (1 / p)).value


@pytest.mark.parametrize("text", ["0.5 + 0.2*z^3 + 0.2*z^4096", "(z+z^2)/2"])
def test_stored_moduli_leave_every_value_unchanged(text):
    # descending p fills the store with the longest ladder first; a fresh
    # symbol takes ascending p, and the sampled path reads nothing stored
    s, fresh, sampled = (parse_symbol(text) for _ in range(3))
    f = [0.5, -1.0, 0.25j]
    pullback = pullback_h2(fresh, f).value
    down = {p: p_norm(s, p).value for p in (8, 4, 3, 2)}
    up = {p: p_norm(fresh, p).value for p in (2, 3, 4, 8)}
    assert down == up == {p: _sampled_p_norm(sampled, p) for p in (2, 3, 4, 8)}
    assert pullback_h2(s, f).value == pullback == pullback_h2(sampled, f).value


def test_p_norm_ladder_past_block_stores_no_larger_grid():
    s = parse_symbol("0.5 + 0.2*z^3 + 0.2*z^4096")
    assert p_norm(s, 8).grid_size > hardy.BLOCK
    assert s._moduli.size == hardy.BLOCK and not s._moduli.flags.writeable


def test_p_norm_past_block_samples_only_the_shifted_block(monkeypatch):
    # the unshifted block of a 2-block rung is the BLOCK grid validate_selfmap
    # stored; the values are bitwise those of sampling every block
    s, sampled = parse_symbol("0.5*z + 0.4*z^4096"), parse_symbol("0.5*z + 0.4*z^4096")
    validate_selfmap(s)
    shifts, sample = [], symbolic.circle_values

    def recorded(s, K, shift=0.0):
        shifts.append(shift)
        return sample(s, K, shift)

    monkeypatch.setattr(symbolic, "circle_values", recorded)
    values = {p: p_norm(s, p) for p in (2, 3, 4, 8)}
    assert all(r.grid_size > hardy.BLOCK for r in values.values())
    assert shifts and 0.0 not in shifts
    assert s._moduli.size == hardy.BLOCK
    monkeypatch.undo()
    assert {p: r.value for p, r in values.items()} == {
        p: _sampled_p_norm(sampled, p) for p in (2, 3, 4, 8)}


def _sampled_points(monkeypatch, s):
    """The circle points, as indices on the MAX_GRID-point grid, that each of
    validate_selfmap and p_norm at p = 2, 3, 4, 8 samples through circle_values."""
    L, sample, calls = hardy.MAX_GRID, symbolic.circle_values, []

    def recorded(s, K, shift=0.0):
        r = shift * L / (2 * np.pi)
        assert L % K == 0 and abs(r - round(r)) < 1e-6
        calls[-1].append((round(r) + np.arange(K) * (L // K)) % L)
        return sample(s, K, shift)

    monkeypatch.setattr(symbolic, "circle_values", recorded)
    for run in [validate_selfmap] + [lambda s, p=p: p_norm(s, p) for p in (2, 3, 4, 8)]:
        calls.append([])
        run(s)
    monkeypatch.undo()
    return [np.concatenate(c or [np.empty(0, dtype=int)]) for c in calls]


def _distinct(points) -> bool:
    return np.unique(points).size == points.size


@pytest.mark.parametrize("text, past_block", [("(z+z^2)/2", False), ("0.004*z/(1-0.995*z)", False),
                                              ("0.5 + 0.2*z^3 + 0.2*z^4096", True)])
def test_each_circle_point_sampled_once(monkeypatch, text, past_block):
    # up to BLOCK the selfmap scan and every rung share the one stored grid, so
    # no point is sampled twice across the calls; past BLOCK each call samples
    # its rungs afresh, but its nested ladder samples none of them twice
    s = parse_symbol(text)
    calls = _sampled_points(monkeypatch, s)
    assert (max(p_norm(s, p).grid_size for p in (2, 3, 4, 8)) > hardy.BLOCK) == past_block
    assert all(map(_distinct, calls if past_block else [np.concatenate(calls)]))
    assert isinstance(s._moduli, np.ndarray) and not s._moduli.flags.writeable
    assert s._moduli.size <= hardy.BLOCK


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
        s = blaschke(pts)
        if rng.integers(0, 2):
            s = sym_mul(identity(), s)
        assert is_inner(s).is_inner
        assert np.max(np.abs(np.abs(circle_values(s, 4096)) - 1.0)) < 1e-6


def test_inner_multiple():
    ok, mag = inner_multiple(parse_symbol("0.7*z^3"))
    assert ok and mag == pytest.approx(0.7, abs=1e-15)
    ok, mag = inner_multiple(parse_symbol("0.3*z*alpha(0.4)"))
    assert ok and mag == pytest.approx(0.3, abs=1e-13)
    # a complex scalar: the modulus products' ratio |lambda|^2 is still real
    assert inner_multiple(parse_symbol("0.6i*z*alpha(0.5)")) == (True, 0.6)
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
