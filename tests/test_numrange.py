import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardyop import (
    NotSelfmapError,
    PreconditionError,
    alpha,
    alpha_ellipse,
    boundary,
    comp_matrix,
    const_ellipse,
    const_matrix,
    ellipse_compare,
    parse_symbol,
    range_schedule,
    sample_w,
)
from hardyop.numrange import CERT_TOL, _certified, _coarse_to_fine, _SupportSweep

from geometry import contact_points, polyline_hausdorff


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
    contact = contact_points(const_ellipse(0.5), nr.thetas)
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


def support_error(M, nr):
    """Largest gap between the support values and dense top eigenvalues,
    relative to max(1, |h|)."""
    gaps = []
    for theta, h in zip(nr.thetas, nr.support_vals):
        B = np.exp(-1j * theta) * M
        top = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]
        gaps.append(abs(h - top) / max(1.0, abs(h)))
    return max(gaps)


def test_boundary_above_old_dense_cut():
    # the certified sweep runs at every dimension, N > 512 included; on a
    # 16-angle grid each of the 5 solved angles (mirrored half) takes a dense
    # step, whose values come from eigvalsh and whose points come from the
    # shifted solves' vectors
    M = comp_matrix(alpha(0.5), 520, "full").entries
    nr = boundary(M, grid=16)
    assert nr.dense_solves == 5
    for theta, h in zip(nr.thetas, nr.support_vals):
        B = np.exp(-1j * theta) * M
        top = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]
        assert abs(h - top) <= CERT_TOL
    for j in range(5):  # the solved angles and their opposites, one eigh each
        B = np.exp(-1j * nr.thetas[j]) * M
        V = np.linalg.eigh((B + B.conj().T) / 2.0)[1][:, [-1, 0]]
        for k, v in zip((j, j + 8), V.T):
            assert abs(nr.boundary_pts[k] - v.conj() @ (M @ v)) <= 1e-10
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
    assert support_error(M, real) <= 1e-12


@pytest.mark.parametrize("grid", [64, 45], ids=["half", "full"])
def test_boundary_diagonal_picks_the_top_vertex(grid):
    # every basis vector of the sweep is an exact eigenvector of diag(d), so a
    # small residual alone would accept a vertex that is not the top one; the
    # Cholesky certificate rejects it
    d = (1.0 + 0.1 * np.arange(7)) * np.exp(2j * np.pi * np.arange(7) / 7)
    nr = boundary(np.diag(d), grid=grid)
    exact = (np.exp(-1j * nr.thetas)[:, None] * d[None, :]).real.max(axis=1)
    assert np.max(np.abs(nr.support_vals - exact)) <= 1e-12
    assert nr.radius == pytest.approx(np.abs(d).max(), abs=1e-12)


def test_boundary_complex_nonnormal_matches_dense():
    rng = np.random.default_rng(4)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c *= 0.9 / np.abs(c).sum()  # sup |phi| <= 0.9 on the disk
    text = " + ".join(f"({v.real:.6f}{v.imag:+.6f}i)*z^{k}" for k, v in enumerate(c))
    M = comp_matrix(parse_symbol(text), 96, "full").entries
    assert M.dtype == np.complex128
    nr = boundary(M, grid=45)
    assert support_error(M, nr) <= 1e-12
    assert nr.radius >= nr.support_vals.max()


def test_boundary_points_match_dense_eigenvectors():
    # the Rayleigh quotients of the dense top eigenvectors, angle by angle
    M = comp_matrix(alpha(0.5), 64, "full").entries
    nr = boundary(M, grid=36)
    for theta, pt in zip(nr.thetas, nr.boundary_pts):
        B = np.exp(-1j * theta) * M
        v = np.linalg.eigh((B + B.conj().T) / 2.0)[1][:, -1]
        assert abs(pt - v.conj() @ (M @ v)) <= 1e-10


def test_dense_solves_counts_full_size_eigvalsh(monkeypatch):
    M = comp_matrix(alpha(0.5), 64, "full").entries
    full_size = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        full_size.append(a.shape[0] == 64)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    nr = boundary(M, grid=720)
    assert nr.dense_solves == sum(full_size)
    # 181 solved angles, visited coarse to fine, and the slope search's few
    # radius evaluations, each dense step adding two eigenvectors and their
    # derivatives to the basis
    assert 1 <= nr.dense_solves <= 5
    assert boundary(M, grid=720).dense_solves == nr.dense_solves


def test_sweep_runs_no_full_size_eigh(monkeypatch):
    # the dense step reads eigenvalues from eigvalsh and vectors from shifted
    # solves; the only eigh left is the Ritz solve on the basis
    sizes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    nr = boundary(nonnormal_complex(96), grid=45)
    assert nr.dense_solves >= 1
    assert sizes and max(sizes) < 96


def test_rotated_automorphism_support_matches_dense_eigvalsh():
    # the swept matrix is real and unitarily similar to the compression's
    # complex entries: 17 solved angles, each within the certificate's eps of a
    # dense eigvalsh of the entries
    A = comp_matrix(alpha(0.3 + 0.4j), 128)
    M = A.entries
    nr = boundary(A, grid=64)
    assert nr.dense_solves <= 5
    for t, v in zip(nr.thetas, nr.support_vals):
        B = np.exp(-1j * t) * M
        ref = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(v))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 181])
def test_coarse_to_fine_visits_every_angle_once(n):
    order = _coarse_to_fine(n)
    assert sorted(order) == list(range(n))
    assert order[:2] == [0, n - 1][:n]


def test_coarse_to_fine_bisects_level_by_level():
    assert _coarse_to_fine(17) == [0, 16, 8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15]


def dense_radius(M, nr):
    """Reference numerical radius: golden-section search on dense eigvalsh
    over the two grid steps around the grid maximum, to 1e-10 in theta."""
    def h(t):
        B = np.exp(-1j * t) * M
        return np.linalg.eigvalsh((B + B.conj().T) / 2.0)[-1]

    g = (math.sqrt(5.0) - 1.0) / 2.0
    step = 2.0 * np.pi / nr.thetas.size
    t0 = nr.thetas[int(np.argmax(nr.support_vals))]
    a, b = t0 - step, t0 + step
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = h(x1), h(x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = h(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = h(x1)
    return max(float(nr.support_vals.max()), f1, f2)


def nonnormal_complex(N):
    rng = np.random.default_rng(4)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c *= 0.9 / np.abs(c).sum()  # sup |phi| <= 0.9 on the disk
    text = " + ".join(f"({v.real:.6f}{v.imag:+.6f}i)*z^{k}" for k, v in enumerate(c))
    return comp_matrix(parse_symbol(text), N, "full").entries


def test_opposite_pair_is_the_top_pair_of_the_negated_pencil():
    # the pair at theta + pi is the top pair of -H(theta), whose value is
    # -lambda_min(H(theta)); angles in sequence take dense and Ritz pairs alike
    M = nonnormal_complex(96)
    sweep = _SupportSweep(M)
    thetas = np.linspace(0.0, np.pi, 13)
    for theta in thetas:
        B = np.exp(-1j * theta) * M
        low = np.linalg.eigvalsh((B + B.conj().T) / 2.0)[0]
        _, (h, _) = sweep.extremes(theta, True)
        assert abs(h + low) <= CERT_TOL * max(1.0, abs(h))
    assert 1 <= sweep.dense_solves < thetas.size


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux getrusage reports them")
def test_first_boundary_of_a_process_takes_few_page_faults():
    # the sweep forms H(w) only where a certificate or a dense eigh reads
    # it; one H(theta) per angle shared by two negated copies took about
    # 205,000 minor faults on this boundary, against about 8,000 now
    code = ("import resource\n"
            "from hardyop import alpha, boundary, comp_matrix\n"
            "A = comp_matrix(alpha(0.5), 256)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "boundary(A, grid=720)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src).stdout
    assert int(out) < 50_000


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident set (VmHWM) from /proc/self/status")
def test_large_boundary_peak_memory():
    # the dense step holds M^H (a real copy, 8N^2 bytes), the (2, N, N)
    # shifted stack and one LAPACK copy; a full eigh with its eigenvector
    # matrix and workspace read a rise of 8.1 x 16N^2, the shifted solves
    # beside the Hermitian parts S and T 5.6, beside M^H alone 4.7.  VmHWM,
    # not ru_maxrss, which carries over across exec
    code = ("from hardyop import alpha, boundary, comp_matrix\n"
            "def hwm():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmHWM:'):\n"
            "            return int(line.split()[1]) * 1024\n"
            "A = comp_matrix(alpha(0.5), 520)\n"
            "before = hwm()\n"
            "boundary(A, grid=16)\n"
            "print((hwm() - before) / (16 * 520 ** 2))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src).stdout
    assert float(out) <= 5.2


@pytest.mark.parametrize("make", [
    lambda: comp_matrix(alpha(0.5), 64).matrix,  # a real build, Fortran-ordered
    lambda: np.ascontiguousarray(nonnormal_complex(64)),
], ids=["real-F", "complex-C"])
def test_sweep_holds_the_compression_and_its_adjoint_in_one_layout(make):
    # M^H as a transposed view of M mixes layouts in every certificate and
    # slowed a 720-angle N=256 boundary by about 30%
    M = make()
    sweep = _SupportSweep(M)
    assert sweep.M.flags.f_contiguous and sweep.Mh.flags.f_contiguous
    assert sweep.M.dtype == sweep.Mh.dtype == M.dtype
    assert np.array_equal(sweep.M, M) and np.array_equal(sweep.Mh, M.conj().T)


RADIUS_CASES = {
    # real, mirrored half: the peak sits at theta = 0, where h' = 0
    "alpha-real": (lambda: comp_matrix(alpha(0.5), 64, "full").entries, 720),
    # complex non-normal: the peak lies between grid angles
    "complex-nonnormal": (lambda: nonnormal_complex(96), 45),
    "diagonal": (lambda: np.diag((1.0 + 0.1 * np.arange(7))
                                 * np.exp(2j * np.pi * np.arange(7) / 7)), 64),
    "segment": (lambda: comp_matrix(alpha(0.0), 16, "full").entries, 360),
    # z -> z^3 on zH^2 shifts along chains k -> 3k: a disk, h' = 0 everywhere
    "disk": (lambda: comp_matrix(parse_symbol("z^3"), 64, "h20").entries, 720),
}


@pytest.mark.parametrize("case", list(RADIUS_CASES))
def test_radius_matches_dense_reference(case):
    make, grid = RADIUS_CASES[case]
    M = make()
    nr = boundary(M, grid=grid)
    ref = dense_radius(M, nr)
    assert abs(nr.radius - ref) <= 1e-12
    assert nr.radius >= nr.support_vals.max()
    assert nr.radius_evals <= 8


def test_radius_search_runs_only_off_grid():
    # the slope search evaluates only where the slope changes sign between grid
    # angles; a flat h (disk) or a peak on the grid (segment) keeps the grid max
    for case in ("disk", "segment", "alpha-real"):
        make, grid = RADIUS_CASES[case]
        assert boundary(make(), grid=grid).radius_evals == 0
    make, grid = RADIUS_CASES["complex-nonnormal"]
    nr = boundary(make(), grid=grid)
    assert nr.radius_evals >= 1
    assert nr.radius > nr.support_vals.max()


def test_certificate_rejects_indefinite_and_nan():
    assert _certified(np.eye(3))
    assert not _certified(np.diag([1.0, -1e-12, 1.0]))
    assert not _certified(np.full((3, 3), np.nan))
    assert not _certified(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_focal_margin_sign_marks_the_open_disk():
    e = alpha_ellipse(0.5)
    # the center lies inside at margin major - |focal distance|; 3, 2i and
    # 10+10i lie outside, which a distance to the boundary cannot tell
    assert e.focal_margin(0.0) == pytest.approx(e.major_len - 2.0, abs=1e-15)
    assert (e.focal_margin(np.array([3.0, 2.0j, 10 + 10j])) < 0).all()
    assert abs(e.focal_margin(contact_points(e, np.linspace(0, 6, 50)))).max() <= 1e-14


def test_interior_margin_of_the_sweeps_boundary_points():
    # W(C_alpha) is the open ellipse: the compression's boundary points lie inside
    nr = boundary(comp_matrix(alpha(0.5), 64, "full"), grid=720)
    e = alpha_ellipse(0.5)
    cmp_ = ellipse_compare(nr, e)
    assert cmp_.interior_margin == e.focal_margin(nr.boundary_pts).min() > 0
    # W(C_0.5) is the closed ellipse, which the N=64 compression's range touches
    cmp_ = ellipse_compare(boundary(const_matrix(0.5, 64), grid=720), const_ellipse(0.5))
    assert abs(cmp_.interior_margin) <= 1e-12


def test_polyline_hausdorff_translated_square():
    sq = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    assert polyline_hausdorff(sq, sq) == 0.0
    assert polyline_hausdorff(sq, sq + 0.1) == pytest.approx(0.1, abs=1e-12)


def test_boundary_rejects_tiny_grid():
    with pytest.raises(ValueError):
        boundary(np.eye(4, dtype=complex), grid=8)


def test_boundary_of_rotated_automorphism_sweeps_the_real_core():
    # alpha(p) is lam psi(mu z) with psi real and lam mu = 1: the entries are
    # D_mu C_psi D_mu*, unitarily similar to the stored real matrix, and
    # W(C_alpha(p)) depends only on |p|
    A = comp_matrix(alpha(0.3 + 0.4j), 128, "full")
    assert A.row is not None and np.array_equal(A.col, A.row.conj())
    nr = boundary(A, grid=64)
    on_core = boundary(A.matrix, grid=64)
    assert np.array_equal(nr.support_vals, on_core.support_vals)
    assert nr.dense_solves == on_core.dense_solves
    for ref in (boundary(A.entries, grid=64), boundary(comp_matrix(alpha(0.5), 128), grid=64)):
        assert np.max(np.abs(nr.support_vals - ref.support_vals)) <= 1e-12
        assert np.max(np.abs(nr.boundary_pts - ref.boundary_pts)) <= 1e-12
        assert nr.radius == pytest.approx(ref.radius, abs=1e-12)


def test_boundary_without_similarity_sweeps_the_entries():
    # z alpha(p) has lam mu != 1: the phases keep the singular values but not
    # the numerical range, so the complex entries are swept
    A = comp_matrix(parse_symbol("z*alpha((0.3+0.4i))"), 64, "full")
    assert A.row is not None and not np.array_equal(A.col, A.row.conj())
    nr = boundary(A, grid=64)
    ref = boundary(A.entries, grid=64)
    assert np.array_equal(nr.support_vals, ref.support_vals)
    assert np.array_equal(nr.boundary_pts, ref.boundary_pts)
    assert support_error(A.entries, nr) <= 1e-12


@pytest.mark.parametrize("symbol, dims", [("alpha(0.5)", (16, 32)), ("z/2 + 0.25", (16,))])
def test_range_schedule_slices_one_build(symbol, dims):
    # each dimension's boundary is that of its own build, compared against the
    # recognized ellipse, or against none
    s = parse_symbol(symbol)
    ellipse, per_dim = range_schedule(s, list(dims), grid=32)
    assert list(per_dim) == list(dims)
    assert (ellipse is None) == (symbol == "z/2 + 0.25")
    for N, (nr, cmp_) in per_dim.items():
        built = boundary(comp_matrix(s, N), grid=32)
        assert np.array_equal(nr.support_vals, built.support_vals)
        assert cmp_ == (None if ellipse is None else ellipse_compare(built, ellipse))


def test_range_schedule_checks_the_symbol_before_the_schedule():
    with pytest.raises(NotSelfmapError):
        range_schedule(parse_symbol("2*z"), [16, 8])
    with pytest.raises(PreconditionError, match="dimension schedule"):
        range_schedule(alpha(0.5), [16, 8])
    with pytest.raises(PreconditionError, match="compression dimension"):
        range_schedule(alpha(0.5), [1])
