import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hardyop import (
    NotSelfmapError,
    OpMatrix,
    PreconditionError,
    alpha,
    blaschke,
    boundary,
    comp_matrix,
    compop,
    const_matrix,
    constant,
    distance,
    h2_norm,
    identity,
    norm_schedule,
    op_norm,
    p_norm,
    parse_symbol,
    restricted_norm,
    taylor,
    validate_selfmap,
    weighted_matrix,
)

PHI23 = parse_symbol("(z^2+z^3)/2")
PHI12 = parse_symbol("(z+z^2)/2")
# zeros of unrelated phases: a complex matrix, and a series with m = 322
# coefficients above eps^2, so every column at N >= 322 convolves a long step
SLOW_CPLX = blaschke([0.8, 0.3j])


# ---------------------------------------------------------------------------
# matrix construction


def test_comp_matrix_square_symbol():
    A = comp_matrix(parse_symbol("z^2"), 4, "full").entries
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    expect[2, 1] = 1.0  # z^2
    assert np.array_equal(A, expect)


def test_comp_matrix_constant_symbol():
    A = const_matrix(0.5, 3).entries
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, :] = [1.0, 0.5, 0.25]
    assert np.array_equal(A, expect)


def test_comp_matrix_identity_symbol():
    A = comp_matrix(identity(), 6, "full").entries
    assert np.array_equal(A, np.eye(6, dtype=complex))


def test_comp_matrix_h20_square_symbol():
    A = comp_matrix(parse_symbol("z^2"), 4, "h20").entries
    expect = np.zeros((4, 4), dtype=complex)
    expect[1, 0] = 1.0  # column 1: coeffs 1..4 of z^2
    expect[3, 1] = 1.0  # column 2: coeffs 1..4 of z^4
    assert np.array_equal(A, expect)


def test_comp_matrix_columns_are_truncated_powers():
    s = alpha(0.4)
    N = 16
    A = comp_matrix(s, N, "full").entries
    t = taylor(s, N)
    col = np.zeros(N, dtype=complex)
    col[0] = 1.0
    for k in range(N):
        assert np.allclose(A[:, k], col, atol=1e-14)
        col = np.convolve(col, t)[:N]


@pytest.mark.parametrize("n", [64, 128])
def test_lacunary_step_leading_block_stays_within_rounding(n):
    # the one exception to bitwise nesting: the step of 0.3 + 0.2 z + 0.3 z^200
    # trims to 2 terms below N = 201 and keeps all 201 above, so the two builds
    # convolve differently (6.9e-18 apart when measured)
    s = parse_symbol("0.3 + 0.2*z + 0.3*z^200")
    big = comp_matrix(s, 4 * n).leading(n).entries
    assert np.max(np.abs(big - comp_matrix(s, n).entries)) <= 1e-16


def test_fft_and_direct_columns_agree():
    # alpha(0.8)'s series keeps m = 321 coefficients above eps^2: a step of 321
    # terms at N=512, one cut to N at N=128; real coefficients stay float64 and
    # the N=128 build is the leading block of the N=512 one, bitwise
    s = alpha(0.8)
    big = comp_matrix(s, 512, "full").entries
    small = comp_matrix(s, 128, "full").entries
    assert big.dtype == np.float64 and small.dtype == np.float64
    assert np.array_equal(big[:128, :128], small)
    # spot-check deep columns against plain convolution powers, for a real
    # symbol and a complex one (complex128 entries)
    cplx = SLOW_CPLX
    big_c = comp_matrix(cplx, 512, "full").entries
    assert big_c.dtype == np.complex128
    for sym, M in ((s, big), (cplx, big_c)):
        t = taylor(sym, 512)
        col = np.zeros(512, dtype=complex)
        col[0] = 1.0
        for k in range(1, 401):
            col = np.convolve(col, t)[:512]
            if k in (7, 100, 400):
                assert np.max(np.abs(M[:, k] - col)) < 1e-12


@pytest.mark.parametrize("N", [16, 600, 2048])
@pytest.mark.parametrize("basis", ["full", "h20"])
def test_identity_compression_is_exact(N, basis):
    # np.convolve by the step z forms each entry as x*1 + y*0: exact at every N
    assert np.array_equal(comp_matrix(identity(), N, basis).entries, np.eye(N))


def test_weighted_matrix_identity_symbol_is_exact_toeplitz():
    w = alpha(0.3)
    N = 600
    W = weighted_matrix(w, identity(), N).entries
    t = taylor(w, N).real
    # flushed as every compression is: entries below eps^2 times the largest
    t[np.abs(t) < np.finfo(float).eps ** 2 * np.abs(t).max()] = 0
    for k in (0, 1, 299, 599):
        expect = np.zeros(N)
        expect[k:] = t[:N - k]
        assert np.array_equal(W[:, k], expect)


def test_weighted_matrix_unit_weight():
    s = parse_symbol("(z+z^2)/2")
    W = weighted_matrix(constant(1.0), s, 12).entries
    C = comp_matrix(s, 12, "full").entries
    assert np.allclose(W, C, atol=1e-14)


def test_weighted_matrix_square_symbol():
    phi = parse_symbol("z^2")
    W = weighted_matrix(phi, phi, 10).entries
    for n in range(4):
        col = np.zeros(10, dtype=complex)
        if 2 * n + 2 < 10:
            col[2 * n + 2] = 1.0
        assert np.array_equal(W[:, n], col)


def test_weighted_equals_restricted_for_origin_fixing():
    # ||T_{phi,phi}|| compression equals the h20 compression of C_phi
    got = op_norm(weighted_matrix(PHI23, PHI23, 64))
    assert got == pytest.approx(restricted_norm(PHI23, 64), abs=1e-12)


def test_opmatrix_shares_callers_array():
    a = np.arange(16.0).reshape(4, 4)
    M = OpMatrix(a)
    assert np.shares_memory(M.entries, a)
    assert not M.entries.flags.writeable
    assert a.flags.writeable
    a[0, 0] = 1.0


@pytest.mark.parametrize("phases", [
    ("full",),
    (np.ones(4),),
    (np.ones(4), np.ones(3)),
    (np.ones(3), np.ones(4)),
    (np.ones((4, 1)), np.ones(4)),
    (None, np.ones(4)),
], ids=["stale-basis", "row-only", "short-col", "short-row", "2-d-row", "col-only"])
def test_opmatrix_rejects_phases_unless_both_of_length_dim(phases):
    # a stale OpMatrix(m, "full") would store "full" as the row phases and
    # fail later, inside entries
    with pytest.raises(ValueError):
        OpMatrix(np.eye(4), *phases)


FLUSH_CASES = {
    "real-blaschke": alpha(0.5),
    "complex-blaschke": blaschke([0.5, 0.3j]),
    "complex-blaschke-fft": SLOW_CPLX,
    "complex-contraction": parse_symbol("0.6*blaschke(0.5, 0.3i)"),
    "rotated-blaschke": alpha(0.3 + 0.4j),
    "real-poly": parse_symbol("0.187623 + (-0.302960)*z + 0.183228*z^4"),
    "complex-poly": parse_symbol(
        "(0.189406-0.105099i) + (-0.209655+0.100080i)*z + (-0.061286+0.061018i)*z^4"),
    "rotated-poly": parse_symbol("(0.3+0.4i)*z + 0.2i*z^2"),
}


@pytest.mark.parametrize("N", [64, 511, 512, 1024])
@pytest.mark.parametrize("case", list(FLUSH_CASES))
def test_compressions_hold_no_subnormals(case, N):
    # every entry is 0 or at least eps^2 times the largest of the first
    # column, and no real or imaginary part of an entry is subnormal
    s = FLUSH_CASES[case]
    for A in (comp_matrix(s, N, "full"), comp_matrix(s, N, "h20"), weighted_matrix(s, s, N)):
        mag = np.abs(A.matrix)
        floor = np.finfo(float).eps ** 2 * mag[:, 0].max()
        assert not np.any((mag > 0) & (mag < floor))
        parts = np.abs(np.stack([A.entries.real, A.entries.imag]))
        assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))


CONTRACTIONS = {
    "complex-poly": FLUSH_CASES["complex-poly"],
    "blaschke": parse_symbol("0.5*blaschke(0.3, 0.4i)"),
    "affine": parse_symbol("z/2 + 0.25"),
}


@pytest.mark.parametrize("N", [256, 1024])
@pytest.mark.parametrize("case", list(CONTRACTIONS))
def test_contraction_is_solved_on_its_column_support(case, N):
    # sup|s| < 1: ||s^k|| decays geometrically, so the flushed build ends at
    # a column K < N and the solve on columns :K matches the full Gram's
    s = CONTRACTIONS[case]
    for A in (comp_matrix(s, N, "full"), comp_matrix(s, N, "h20"), weighted_matrix(s, s, N)):
        M = A.matrix
        nonzero = M.any(axis=0)
        K = int(np.argmin(nonzero))
        assert 0 < K < N and not nonzero[K:].any()
        full = math.sqrt(np.linalg.eigvalsh(M.conj().T @ M)[-1])
        assert op_norm(A) == pytest.approx(full, rel=1e-14, abs=0)
    assert distance(s, s, N) == 0.0


def test_inner_symbol_has_full_column_support():
    assert comp_matrix(alpha(0.5), 1024).matrix.any(axis=0).all()


@pytest.mark.parametrize("build", [
    lambda: comp_matrix(alpha(0.5), 64),
    lambda: comp_matrix(parse_symbol("z^2"), 64, "h20"),
    lambda: comp_matrix(alpha(0.3 + 0.4j), 64),
    lambda: comp_matrix(FLUSH_CASES["complex-poly"], 64, "h20"),
    lambda: const_matrix(0.5, 64),
    lambda: weighted_matrix(PHI12, PHI23, 64),
    lambda: weighted_matrix(alpha(0.3 + 0.4j), alpha(0.3 + 0.4j), 64),
    lambda: compop._difference(alpha(0.5), identity(), 64),
], ids=["real", "h20-shift", "rotated", "complex-h20", "const", "weighted", "weighted-rotated",
        "difference"])
def test_compressions_are_column_major(build):
    A = build()
    for M in (A.matrix, A.entries):
        assert M.strides[0] == M.itemsize


def test_polynomial_columns_take_no_fft(monkeypatch):
    # every step convolves directly: a degree-3 one exactly, in O(N) per
    # column, and the 322-term series of SLOW_CPLX too
    cplx3 = parse_symbol("0.3*z + (0.2+0.1i)*z^2 + 0.2i*z^3")
    for s in (cplx3, SLOW_CPLX):
        validate_selfmap(s)  # cached; its boundary scan takes FFTs
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    assert comp_matrix(cplx3, 1024).matrix.dtype == np.complex128
    assert calls == []
    comp_matrix(SLOW_CPLX, 512)
    assert calls == []


# ---------------------------------------------------------------------------
# op_norm


def test_op_norm_identity():
    assert op_norm(np.eye(8, dtype=complex)) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_constant_row_formula():
    # single nonzero row: norm is the row's Euclidean norm
    A = const_matrix(0.5, 32)
    expect = math.sqrt((1 - 0.5**64) / 0.75)
    assert expect == pytest.approx(1.15470054, abs=1e-8)
    assert op_norm(A) == pytest.approx(expect, abs=1e-12)


def test_op_norm_diagonal_rotation_gaps():
    lam, mu = 1j, 1.0
    diag = np.array([0] + [lam**n - mu**n for n in range(1, 5)], dtype=complex)
    A = np.diag(diag)
    assert op_norm(A) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_zero_matrix():
    assert op_norm(np.zeros((6, 6), dtype=complex)) == 0.0
    # real path: the Gram eigenvalue may round below 0 and is clamped
    assert op_norm(np.zeros((6, 6))) == 0.0


@pytest.mark.parametrize("p", [0.5, 0.3 + 0.4j, [0.5, 0.3j]],
                         ids=["real", "complex", "complex-blaschke"])
def test_escalation_matches_dense_svd(p):
    # slow spectral gap: the top singular values of C_phi - I cluster; real
    # and complex matrices alike take the Gram eigensolve
    s = blaschke(p) if isinstance(p, list) else alpha(p)
    M = comp_matrix(s, 256, "full").entries - np.eye(256)
    assert M.dtype == (np.float64 if isinstance(p, float) else np.complex128)
    oracle = float(np.linalg.svd(M, compute_uv=False)[0])
    if M.dtype == np.float64:
        assert op_norm(M) == pytest.approx(oracle, abs=1e-10)
    else:
        assert op_norm(M) == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("s", [alpha(0.5), alpha(0.3 + 0.4j), PHI12],
                         ids=["real", "rotated", "contraction"])
def test_real_gram_is_exactly_symmetric(s):
    # numpy's syrk product: its transpose, the column-major order LAPACK
    # reads, is the same matrix
    G = compop._gram(comp_matrix(s, 128))
    assert G.dtype == np.float64 and G.flags.f_contiguous
    assert np.array_equal(G, G.T)


# ---------------------------------------------------------------------------
# distances / restrictions


@pytest.mark.parametrize("a, b", [("2*z", "z^2"), ("z^2", "2*z")])
def test_distance_rejects_non_selfmap(a, b):
    with pytest.raises(NotSelfmapError):
        distance(parse_symbol(a), parse_symbol(b), 8)


def test_distance_to_self_is_zero():
    s = parse_symbol("z^3")
    assert distance(s, s, 16) == 0.0


def test_distance_inner_const():
    d = distance(parse_symbol("z^2"), constant(0.5), 128)
    assert d == pytest.approx(1 / math.sqrt(0.75), abs=1e-6)


def test_distance_const_const():
    d = distance(constant(0.0), constant(0.5), 64)
    assert d == pytest.approx(math.sqrt(1 / 3), abs=1e-9)


def test_restricted_norm_examples():
    assert restricted_norm(parse_symbol("z^2"), 16) == pytest.approx(1.0, abs=1e-12)
    for N in (4, 16, 64):
        assert restricted_norm(PHI23, N) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    v256 = restricted_norm(PHI12, 256)
    v512 = restricted_norm(PHI12, 512)
    assert v512 >= v256 - 1e-9
    assert v256 < 1.0 and v512 < 1.0


def test_littlewood_contraction():
    for text in ("z^2", "(z+z^2)/2", "(z^2+z^3)/2", "0.7*z^3", "z*alpha(0.4)"):
        A = comp_matrix(parse_symbol(text), 64, "full")
        assert op_norm(A) <= 1.0 + 1e-9


def test_lower_and_upper_sandwich():
    # ||P_N phi||_2 <= restricted norm <= ||phi||_inf * ||C_phi compression||
    for text in ("(z+z^2)/2", "(z^2+z^3)/2", "z*alpha(0.3)", "0.7*z^3"):
        s = parse_symbol(text)
        N = 64
        lower = h2_norm(taylor(s, N + 1)[1:])
        r = restricted_norm(s, N)
        upper = p_norm(s, math.inf).value * op_norm(comp_matrix(s, N, "full"))
        assert lower - 1e-9 <= r <= upper + 1e-9


def test_distance_to_origin_value_bounded_by_weighted():
    for text in ("alpha(0.3)", "z/2 + 0.25", "(z+z^2)/2"):
        s = parse_symbol(text)
        N = 64
        lhs = distance(s, constant(s.value_at_zero()), N)
        rhs = op_norm(weighted_matrix(s, s, N))
        assert lhs <= rhs + 1e-9


def test_isometry_column_gram():
    # composition with inner symbols fixing 0 is an isometry, so the columns
    # (truncated powers) are orthonormal as long as truncation loses nothing:
    # all k <= N/deg for monomial-type symbols, k <= N/8 for the rational one
    # (the tail mass of (z alpha_p)^k creeps into range as k approaches N/deg)
    for text, k in (("z^3", 128 // 3), ("z*alpha(0.5)", 128 // 8)):
        s = parse_symbol(text)
        A = comp_matrix(s, 128, "full").entries
        G = A[:, :k].conj().T @ A[:, :k]
        assert np.max(np.abs(G - np.eye(k))) <= 1e-12


# ---------------------------------------------------------------------------
# schedules


def test_schedule_inner_const_target():
    rep = norm_schedule("distance", {"a": parse_symbol("z^2"), "b": constant(0.5)},
                        [16, 32, 64, 128])
    assert rep.target == pytest.approx(1 / math.sqrt(0.75), abs=1e-15)
    assert rep.gaps is not None
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(rep.gaps, rep.gaps[1:]))
    assert rep.gaps[-1] < 1e-6


def test_schedule_restricted_constant_value():
    rep = norm_schedule("restricted", {"s": parse_symbol("z^3")}, [8, 16, 32])
    assert rep.target == pytest.approx(1.0, abs=1e-15)
    for v in rep.values:
        assert v == pytest.approx(1.0, abs=1e-10)


def test_schedule_monotone_values():
    rep = norm_schedule("opnorm", {"s": alpha(0.4)}, [16, 32, 64])
    assert all(b >= a - 1e-9 for a, b in zip(rep.values, rep.values[1:]))
    assert rep.target == pytest.approx(math.sqrt(1.4 / 0.6), abs=1e-12)


def test_schedule_rejects_bad_dims():
    with pytest.raises(PreconditionError):
        norm_schedule("restricted", {"s": parse_symbol("z^2")}, [16, 16])
    with pytest.raises(PreconditionError):
        norm_schedule("restricted", {"s": parse_symbol("z^2")}, [])
    # a schedule is sliced from one build, so each dimension is checked on its own
    for dims in ([1, 16], [0, 16], [-8, 16]):
        with pytest.raises(PreconditionError):
            norm_schedule("restricted", {"s": parse_symbol("z^2")}, dims)


def test_restricted_norms_match_single_builds():
    dims = (8, 12, 16)
    got = norm_schedule("restricted", {"s": PHI12}, dims).values
    for N, v in zip(dims, got):
        assert abs(v - restricted_norm(PHI12, N)) <= 1e-12


def test_schedule_identical_symbols_target_zero():
    rep = norm_schedule("distance", {"a": PHI23, "b": PHI23}, [8, 16])
    assert rep.target == 0.0
    assert all(v == 0.0 for v in rep.values)


def test_weighted_schedule_target():
    rep = norm_schedule("weighted", {"w": PHI23, "s": PHI23}, [16, 32])
    assert rep.target == pytest.approx(1 / math.sqrt(2), abs=1e-15)


# three terms with unrelated phases: no rotated real form, so a complex matrix
CPLX = parse_symbol("(0.2+0.1i) + 0.3*z + 0.2i*z^2")
# the same for a symbol fixing 0, which the restriction needs
CPLX0 = parse_symbol("0.3*z + (0.2+0.1i)*z^2 + 0.2i*z^3")
# lam psi(mu z) with psi real: a float64 matrix with unit phases
ROT = parse_symbol("(0.3+0.4i)*z + 0.2i*z^2")
SLICED_CASES = {
    "opnorm-real": ("opnorm", {"s": alpha(0.4)}),
    "opnorm-complex": ("opnorm", {"s": CPLX}),
    "opnorm-rotated": ("opnorm", {"s": parse_symbol("(0.2+0.1i) + 0.6*z")}),
    "distance-real": ("distance", {"a": PHI12, "b": constant(0.3)}),
    "distance-complex": ("distance", {"a": CPLX, "b": constant(0.2j)}),
    "distance-rotated": ("distance", {"a": ROT, "b": constant(0.2j)}),
    "restricted-real": ("restricted", {"s": PHI12}),
    "restricted-complex": ("restricted", {"s": CPLX0}),
    "restricted-rotated": ("restricted", {"s": ROT}),
    "weighted-real": ("weighted", {"w": PHI23, "s": PHI12}),
    "weighted-complex": ("weighted", {"w": CPLX, "s": CPLX}),
    "weighted-rotated": ("weighted", {"w": ROT, "s": ROT}),
}


@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("task", ["opnorm", "distance"])
@pytest.mark.parametrize("s", [alpha(0.8), SLOW_CPLX], ids=["alpha(0.8)", "blaschke"])
def test_schedule_value_does_not_depend_on_the_rest_of_the_schedule(s, task, N):
    # the value at N is that of the compression built at N, bitwise, whatever
    # larger dimension the schedule builds: one convolution path at every size
    params = {"s": s} if task == "opnorm" else {"a": s, "b": identity()}
    alone = norm_schedule(task, params, [N]).values[0]
    assert norm_schedule(task, params, [N, 4 * N]).values[0] == alone


def per_dimension(task, params, N):
    if task == "opnorm":
        return op_norm(comp_matrix(params["s"], N, "full"))
    if task == "distance":
        return op_norm(comp_matrix(params["a"], N, "full").entries
                       - comp_matrix(params["b"], N, "full").entries)
    if task == "restricted":
        return op_norm(comp_matrix(params["s"], N, "h20"))
    return op_norm(weighted_matrix(params["w"], params["s"], N))


@pytest.mark.parametrize("case", list(SLICED_CASES))
def test_schedule_slices_match_per_dimension_builds(case, monkeypatch):
    # one build at the largest dimension sliced to the smaller ones
    task, params = SLICED_CASES[case]
    dims = [16, 64, 520]
    # every build runs one power sequence per symbol; the h20 one forms the
    # degree-0 row too, and drops it
    builds = []
    powers = compop._powers

    def counted(first, step, length):
        builds.append(length)
        return powers(first, step, length)

    monkeypatch.setattr(compop, "_powers", counted)
    rep = norm_schedule(task, params, dims)
    symbols = 2 if task == "distance" else 1
    assert builds == [dims[-1] + (task == "restricted")] * symbols
    monkeypatch.undo()
    for N, v in zip(dims, rep.values):
        assert abs(v - per_dimension(task, params, N)) <= 1e-12
    # a difference of compressions drops the phases
    A = compop._task_matrix(task, params, 16)
    assert (A.row is not None) == (case.endswith("-rotated") and task != "distance")
    assert (A.col is None) == (A.row is None)


DIFFERENCES = {
    "real": (alpha(0.5), identity()),
    "rotated-rotated": (alpha(0.3 + 0.4j), parse_symbol("0.5i*z")),
    "rotated-ends-first": (parse_symbol("0.5i*z"), alpha(0.3 + 0.4j)),
    "rotated-real": (parse_symbol("0.5i*z"), parse_symbol("0.3*z^2")),
    "real-rotated": (parse_symbol("0.3*z^2"), alpha(0.3 + 0.4j)),
    "complex-constant": (CPLX, constant(0.2j)),
    "contractions": (parse_symbol("0.5*blaschke(0.3, 0.4i)"), parse_symbol("z/2 + 0.25")),
}


@pytest.mark.parametrize("case", list(DIFFERENCES))
def test_difference_in_one_column_loop_matches_the_subtraction(case):
    # a's columns written, then b's subtracted: the entries of the matrix
    # difference, bitwise, signs of zeros included (a phased build's zero
    # columns carry signed zeros), up to the last column where either build
    # is nonzero, and zero after it
    a, b = DIFFERENCES[case]
    N = 300
    ref = comp_matrix(a, N).entries - comp_matrix(b, N).entries
    got = compop._difference(a, b, N).entries
    K = max(np.flatnonzero(comp_matrix(s, N).matrix.any(axis=0)).max() for s in (a, b)) + 1
    assert got.dtype == ref.dtype and got.flags.f_contiguous
    assert np.ascontiguousarray(got[:, :K]).tobytes() == np.ascontiguousarray(ref[:, :K]).tobytes()
    assert not got[:, K:].any()


def test_distance_schedule_holds_two_arrays():
    # the difference is formed in one column loop, and the build is dropped
    # before the largest eigensolve: the traced peak is the difference plus
    # its Gram at N = 512, not three arrays
    params = {"a": alpha(0.5), "b": identity()}
    norm_schedule("distance", params, [16, 32])
    tracemalloc.start()
    try:
        norm_schedule("distance", params, [256, 512])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * 512**2


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident size from /proc/self/status")
def test_distance_schedule_resident_rise_stays_below_three_arrays():
    # a fresh process, after a small schedule has set up the BLAS buffers.
    # Holding the N = 1024 difference, its Gram and LAPACK's copy of the Gram
    # at once raises the peak resident size by about 3.5 x 8N^2; dropping
    # the build before the eigensolve, by about 2.5 x 8N^2.  VmHWM is the
    # peak of the process's own memory; ru_maxrss would start at the
    # resident size of the process that spawned it, which under pytest
    # hides the rise.
    code = ("def peak():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmHWM:'):\n"
            "            return int(line.split()[1])\n"
            "from hardyop import alpha, identity, norm_schedule\n"
            "params = {'a': alpha(0.5), 'b': identity()}\n"
            "norm_schedule('distance', params, [16, 32])\n"
            "before = peak()\n"
            "norm_schedule('distance', params, [512, 1024])\n"
            "print(peak() - before)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src).stdout
    assert int(out) * 1024 <= 3 * 8 * 1024**2


ROTATED = {
    "alpha": alpha(0.3 + 0.4j),
    "z-alpha": parse_symbol("z*alpha((0.3+0.4i))"),
    "two-term": ROT,
}


@pytest.mark.parametrize("name", list(ROTATED))
@pytest.mark.parametrize("basis", ["full", "h20"])
def test_op_norm_of_real_core_matches_complex_entries(name, basis):
    # D_mu C_psi D_lam has the singular values of the real C_psi
    A = comp_matrix(ROTATED[name], 520, basis)
    assert A.row is not None and A.matrix.dtype == np.float64
    assert A.entries.dtype == np.complex128
    rebuilt = A.row[:, None] * A.matrix * A.col
    assert np.max(np.abs(rebuilt - A.entries)) <= 1e-15
    assert op_norm(A) == pytest.approx(op_norm(A.entries), rel=1e-12)


def test_real_symbols_build_no_core():
    # no phases: real symbols are float64 already, CPLX has no rotated real form
    for s in (alpha(0.5), PHI12, constant(0.3)):
        for basis in ("full", "h20"):
            assert comp_matrix(s, 16, basis).row is None
    assert weighted_matrix(PHI23, PHI12, 16).row is None
    W = weighted_matrix(CPLX, CPLX, 16)
    assert W.row is None and W.col is None and W.matrix.dtype == np.complex128


def test_weighted_core_needs_a_shared_rotation():
    # w = s shares s's rotation; a weight rotated by another mu has no phases
    W = weighted_matrix(ROT, ROT, 64)
    assert W.row is not None and W.matrix.dtype == np.float64
    assert op_norm(W) == pytest.approx(op_norm(W.entries), rel=1e-12)
    assert weighted_matrix(alpha(0.3 + 0.4j), ROT, 64).row is None


@pytest.mark.parametrize("N", [16, 300])
@pytest.mark.parametrize("s, rotated", [(alpha(0.5), False), (CPLX, False),
                                        (alpha(0.3 + 0.4j), True), (ROT, True),
                                        (parse_symbol("1i*z"), True)],
                         ids=["real", "complex", "rotated-alpha", "rotated-two-term", "iz"])
def test_comp_matrix_is_the_weighted_compression(s, rotated, N):
    # C_s = T_{1,s}, and the h20 matrix is T_{s,s} less its row 0
    def bitwise(a, b):
        return (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape
                                             and a.tobytes() == b.tobytes())

    C, W = comp_matrix(s, N), weighted_matrix(constant(1.0), s, N)
    assert (C.row is not None) == rotated
    assert bitwise(C.matrix, W.matrix) and bitwise(C.row, W.row) and bitwise(C.col, W.col)
    h20, T = comp_matrix(s, N, "h20"), weighted_matrix(s, s, N + 1)
    assert bitwise(h20.matrix, T.matrix[1:, :N])
    # the phases agree up to rounding: lam lam^k against the running product
    assert np.max(np.abs(h20.entries - T.entries[1:, :N])) <= 1e-15


def test_weighted_matrix_needs_dimension_two():
    with pytest.raises(PreconditionError):
        weighted_matrix(PHI23, PHI12, 1)


def test_leading_block_keeps_the_core():
    A = comp_matrix(ROT, 64, "h20")
    B = A.leading(16)
    assert np.array_equal(B.entries, A.entries[:16, :16])
    assert np.array_equal(B.matrix, A.matrix[:16, :16])
    assert np.array_equal(B.row, A.row[:16]) and np.array_equal(B.col, A.col[:16])
    assert compop._difference(ROT, ROT, 64).row is None


def test_rotated_compression_stores_one_real_matrix():
    # alpha(p) = conj(mu) psi(mu z) with psi real: no complex N x N array is
    # kept, and the entries are formed from the stored arrays on every read
    A = comp_matrix(alpha(0.3 + 0.4j), 64, "full")
    assert A.matrix.dtype == np.float64
    assert A.row.ndim == 1 and A.col.ndim == 1
    assert np.array_equal(A.col, A.row.conj())
    E = A.entries
    assert not E.flags.writeable and E is not A.entries
    # bitwise in this order: numpy's complex products need not commute bitwise
    assert np.array_equal(E, A.matrix * A.col * A.row[:, None])
    assert np.max(np.abs(E - A.row[:, None] * A.matrix * A.col)) <= 1e-15
    with pytest.raises(ValueError):
        E[0, 0] = 0.0
    assert op_norm(A) == op_norm(A.matrix)
    nr, ref = boundary(A, grid=64), boundary(A.matrix, grid=64)
    assert np.array_equal(nr.support_vals, ref.support_vals)
    assert np.array_equal(nr.boundary_pts, ref.boundary_pts)
    assert nr.radius == ref.radius


@pytest.mark.parametrize("text", ["0.5 + 0.3*z", "const(0.5)", "alpha(0.3)"])
def test_restriction_needs_a_symbol_fixing_the_origin(text):
    # the h20 matrix drops row 0, which holds s(0)^k: for s(0) != 0 it is not
    # the restriction, whose norm weighted_matrix(s, s) gives instead
    s = parse_symbol(text)
    with pytest.raises(PreconditionError, match="fixing the origin"):
        restricted_norm(s, 16)
    with pytest.raises(PreconditionError, match="fixing the origin"):
        norm_schedule("restricted", {"s": s}, [8, 16])
