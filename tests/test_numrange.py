import io
import math

import numpy as np
import pytest

from hardyop import (
    alpha,
    alpha_ellipse,
    boundary,
    comp_matrix,
    const_ellipse,
    const_matrix,
    ellipse_compare,
    min_boundary_distance,
    parse_symbol,
    polyline_hausdorff,
    sample_w,
    write_boundary_csv,
)


def test_sample_w_identity():
    pts = sample_w(np.eye(8, dtype=complex), 50, seed=1)
    assert np.max(np.abs(pts - 1.0)) <= 1e-13


def test_sample_w_hermitian_diagonal():
    A = np.diag([1.0, -1.0]).astype(complex)
    pts = sample_w(A, 200, seed=2)
    assert np.max(np.abs(pts.imag)) <= 1e-15
    assert np.all(pts.real >= -1 - 1e-12) and np.all(pts.real <= 1 + 1e-12)


def test_sample_w_rank_one_projection_segment():
    # evaluation at 0: Rayleigh quotients are |v_0|^2, the segment [0, 1]
    A = const_matrix(0.0, 8)
    pts = sample_w(A, 300, seed=3)
    assert np.max(np.abs(pts.imag)) <= 1e-15
    assert np.all(pts.real >= -1e-12) and np.all(pts.real <= 1 + 1e-12)


def test_sample_w_deterministic():
    A = comp_matrix(alpha(0.4), 16, "full")
    a = sample_w(A, 25, seed=7)
    b = sample_w(A, 25, seed=7)
    c = sample_w(A, 25, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_boundary_negation_symbol():
    # C_{-z} is diagonal +-1: numerical range is the segment [-1, 1]
    A = comp_matrix(alpha(0.0), 16, "full")
    nr = boundary(A, grid=360)
    assert nr.radius == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(nr.boundary_pts.imag)) <= 1e-8
    assert np.max(np.abs(nr.support_vals - np.abs(np.cos(nr.thetas)))) <= 1e-10


def test_boundary_points_inside_support_hull():
    A = comp_matrix(alpha(0.5), 64, "full")
    nr = boundary(A, grid=180)
    proj = (nr.boundary_pts[None, :] * np.exp(-1j * nr.thetas)[:, None]).real
    assert np.max(proj - nr.support_vals[:, None]) <= 1e-8


def test_sampled_points_inside_support_hull():
    A = comp_matrix(alpha(0.5), 64, "full")
    nr = boundary(A, grid=180)
    pts = sample_w(A, 100, seed=5)
    proj = (pts[None, :] * np.exp(-1j * nr.thetas)[:, None]).real
    assert np.max(proj - nr.support_vals[:, None]) <= 1e-8


def test_support_monotone_in_dimension():
    s = alpha(0.5)
    nr32 = boundary(comp_matrix(s, 32, "full"), grid=90)
    nr64 = boundary(comp_matrix(s, 64, "full"), grid=90)
    assert np.all(nr64.support_vals >= nr32.support_vals - 1e-10)


def test_radius_of_constant_compression():
    # support max of the closed ellipse: center 1/2 plus semi-major axis
    expect = 0.5 + 0.5 / math.sqrt(0.75)
    nr = boundary(const_matrix(0.5, 64), grid=720)
    assert nr.radius == pytest.approx(expect, abs=1e-8)


def test_ellipse_compare_const_family():
    nr = boundary(const_matrix(0.5, 64), grid=720)
    cmp_ = ellipse_compare(nr, const_ellipse(0.5))
    assert cmp_.contained
    assert cmp_.hausdorff <= 1e-6
    assert cmp_.max_violation <= 1e-8
    contact = const_ellipse(0.5).contact_points(nr.thetas)
    assert abs(cmp_.hausdorff - polyline_hausdorff(nr.boundary_pts, contact)) <= 1e-8


def test_ellipse_compare_degenerate_segment():
    nr = boundary(const_matrix(0.0, 8), grid=360)
    cmp_ = ellipse_compare(nr, const_ellipse(0.0))
    assert cmp_.contained
    assert cmp_.hausdorff <= 1e-10


def test_ellipse_compare_automorphism_family():
    e = alpha_ellipse(0.5)
    gaps = {}
    for N in (32, 96):
        nr = boundary(comp_matrix(alpha(0.5), N, "full"), grid=360)
        cmp_ = ellipse_compare(nr, e)
        assert cmp_.max_violation <= 1e-8
        gaps[N] = cmp_.hausdorff
    assert gaps[96] < gaps[32]


def test_boundary_above_old_dense_cut():
    # every dimension takes the dense Hermitian eigensolve, N > 512 included
    M = comp_matrix(alpha(0.5), 513, "full").entries
    nr = boundary(M, grid=16, refine_radius=False)
    for theta, h in zip(nr.thetas, nr.support_vals):
        B = np.exp(-1j * theta) * M
        top = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]
        assert h == pytest.approx(top, abs=1e-12)
    assert ellipse_compare(nr, alpha_ellipse(0.5)).contained


@pytest.mark.parametrize("grid", [720, 18])
def test_boundary_real_mirror_matches_complex_loop(grid):
    # a real matrix on a grid divisible by 4 solves only [0, pi/2] and mirrors
    # the rest; the same entries cast to complex solve every angle pair
    M = comp_matrix(alpha(0.5), 64, "full").entries
    assert M.dtype == np.float64
    real = boundary(M, grid=grid)
    full = boundary(M.astype(complex), grid=grid)
    assert np.max(np.abs(real.support_vals - full.support_vals)) <= 1e-12
    assert np.max(np.abs(real.boundary_pts - full.boundary_pts)) <= 1e-12
    assert real.radius == pytest.approx(full.radius, abs=1e-12)


def test_min_boundary_distance_interior():
    e = alpha_ellipse(0.5)
    A = comp_matrix(alpha(0.5), 64, "full")
    pts = sample_w(A, 50, seed=11)
    assert min_boundary_distance(pts, e) > 0.0
    # the center is strictly interior at semi-minor depth
    assert min_boundary_distance(np.array([0.0 + 0.0j]), e) == pytest.approx(
        e.semi_minor, abs=1e-3)


def test_polyline_hausdorff_translated_square():
    sq = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    assert polyline_hausdorff(sq, sq) == 0.0
    assert polyline_hausdorff(sq, sq + 0.1) == pytest.approx(0.1, abs=1e-12)


def test_boundary_csv_export():
    nr = boundary(const_matrix(0.3, 16), grid=90)
    buf = io.StringIO()
    write_boundary_csv(nr, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "theta,support,re,im"
    assert len(lines) == 91
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 4


def test_boundary_rejects_tiny_grid():
    with pytest.raises(ValueError):
        boundary(np.eye(4, dtype=complex), grid=8)
