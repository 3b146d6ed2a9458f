"""40-digit references: values computed in mpmath from exact Taylor
coefficients, against which the double-precision results state their error."""

import json
import math
import struct

import pytest

from hardyop import compop, inner_const_distance, kernel_distance, p_norm, parse_symbol, taylor
from hardyop.cli import json_dumps

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


def alpha_distance(p, N: int, lam=1, const=None):
    """||P_N (C_alpha(p) - C_psi) P_N||: column k of C_alpha holds the
    first N Taylor coefficients of alpha^k, alpha = (p - z)/(1 - conj(p) z).
    psi is lam z, whose column k is lam^k e_k, or the constant `const`, whose
    column k is const^k e_0."""
    p, lam = mp.mpmathify(p), mp.mpmathify(lam)  # the doubles the DSL reads
    a = [p] + [(p * mp.conj(p) - 1) * mp.conj(p) ** (n - 1) for n in range(1, N)]
    M, power = mp.matrix(N, N), [mp.mpf(1)] + [mp.mpf(0)] * (N - 1)
    for k in range(N):
        for n in range(N):
            M[n, k] = power[n]
        if const is None:
            M[k, k] -= lam ** k
        else:
            M[0, k] -= mp.mpmathify(const) ** k
        power = [mp.fsum(power[i] * a[n - i] for i in range(n + 1)) for n in range(N)]
    return mp.sqrt(max(mp.eighe(M.H * M, eigvals_only=True)))


def poly_norm(coeffs: dict, p: int):
    """Exact ||f||_p of a polynomial for p = 2 or 4: ||f||_4^4 = ||f^2||_2^2."""
    coeffs = {n: mp.mpf(c) for n, c in coeffs.items()}  # the doubles the DSL reads
    if p == 4:
        square = {}
        for m, a in coeffs.items():
            for n, b in coeffs.items():
                square[m + n] = square.get(m + n, 0) + a * b
        return mp.sqrt(poly_norm(square, 2))
    return mp.sqrt(mp.fsum(c * c for c in coeffs.values()))


# ROADMAP item 5's values; distance() read -8.3e-17 and -1.3e-16 from them
ALPHA_HALF = {16: "2.2794464417916047992", 32: "2.3001606618856406308"}


@pytest.mark.parametrize("N", sorted(ALPHA_HALF))
def test_alpha_half_distance_to_forty_digits(N):
    ref = alpha_distance(0.5, N)
    assert mp.nstr(ref, 20) == ALPHA_HALF[N]
    got = compop.distance(parse_symbol("alpha(0.5)"), parse_symbol("z"), N)
    assert abs(got - ref) <= 1e-15


# ROADMAP item 5's phased difference, alpha((0.3+0.4i)) against 0.5i*z; distance()
# read 1.4e-15 and 7.0e-16 from them
PHASED = {16: "1.7422591403033612656", 32: "1.7471785920122306566"}


@pytest.mark.parametrize("N", sorted(PHASED))
def test_phased_distance_to_forty_digits(N):
    ref = alpha_distance(0.3 + 0.4j, N, lam=0.5j)
    assert mp.nstr(ref, 20) == PHASED[N]
    got = compop.distance(parse_symbol("alpha((0.3+0.4i))"), parse_symbol("0.5i*z"), N)
    assert abs(got - ref) <= 8 * 2.0**-52 * ref


def test_inner_symbol_against_a_constant_to_forty_digits():
    # ROADMAP item 21's attained branch, alpha_0.2 against 0.6, at the exact
    # decimals.  The extremal f carries the factor alpha_0.6, so the sections
    # close like 0.36^N, not (0.2/0.36)^(2N): N = 40, 48, 52 and 56 read
    # 4.4e-17, 1.3e-20, 2.2e-22 and 3.7e-24 below 3 sqrt(3)/4.  At N=52
    # inner_const_distance(0.6, 0.2) reads the section within 0.17 ulp.
    ref = alpha_distance("0.2", 52, const="0.6")
    assert abs(ref - 3 * mp.sqrt(3) / 4) <= mp.mpf(10) ** -20
    target = inner_const_distance(0.6, 0.2)
    assert abs(target - ref) <= math.ulp(target)


def restricted_half(N: int):
    """||P_N C_phi|zH^2 P_N|| for phi = (z + z^2)/2: column k (k = 1..N) holds
    coefficients 1..N of phi^k = z^k (1 + z)^k / 2^k, binom(k, n - k) / 2^k."""
    M = mp.matrix(N, N)
    for k in range(1, N + 1):
        for n in range(k, min(2 * k, N) + 1):
            M[n - 1, k - 1] = mp.binomial(k, n - k) / mp.mpf(2) ** k
    return mp.sqrt(max(mp.eighe(M.T * M, eigvals_only=True)))


# ROADMAP item 5's restricted norm; restricted_norm() read 1.4e-16 and -7.0e-17
# from them
RESTRICTED_HALF = {16: "0.80603396737999541656", 32: "0.81149532154233235234"}


@pytest.mark.parametrize("N", sorted(RESTRICTED_HALF))
def test_restricted_norm_to_forty_digits(N):
    ref = restricted_half(N)
    assert mp.nstr(ref, 20) == RESTRICTED_HALF[N]
    got = compop.restricted_norm(parse_symbol("(z+z^2)/2"), N)
    assert abs(got - ref) <= 1e-15


def kernel_gap(a, b):
    """||k_a - k_b|| from the kernel Gram entries <k_y, k_x> = 1/(1 - conj(x) y)."""
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    aa, bb, ab = (1 / (1 - mp.conj(x) * y) for x, y in ((a, a), (b, b), (a, b)))
    return mp.sqrt(mp.re(aa + bb - 2 * ab))


# nearby constants, where 1/(1-|a|^2) + 1/(1-|b|^2) - 2 Re 1/(1 - conj(a) b)
# cancels: that form read 0, 2.1073e-8, 0, 0 and 0 for the first five pairs;
# the product form reads them within 3.6 eps
NEARBY = [
    (0.9, 0.9 + 1e-9),
    (0.3, 0.30000001),
    (6.980282610082109e-10, -2.9048225263906997e-10 + 6.347153015863714e-10j),
    (0.6j, 1e-12 + 0.6j),
    (-0.7 + 0.1j, -0.7 + 0.100000000000003j),
    (0.5, 0.3),
]


@pytest.mark.parametrize("a, b", NEARBY)
def test_constant_distance_to_forty_digits(a, b):
    ref = kernel_gap(a, b)
    assert abs(kernel_distance(a, b) - ref) <= 8 * 2.0**-52 * ref


def series(text: str, N: int):
    """First N Taylor coefficients of a symbol's stored num/den, divided in
    mpmath by the recurrence c_n = num_n - sum_j den_j c_{n-j} (den_0 = 1)."""
    s = parse_symbol(text)
    num, den = ([mp.mpc(complex(x)) for x in c] for c in (s.num, s.den))
    c = []
    for n in range(N):
        acc = num[n] if n < len(num) else mp.mpf(0)
        c.append(acc - mp.fsum(den[j] * c[n - j] for j in range(1, min(n, len(den) - 1) + 1)))
    return c


# ROADMAP items 10 and 17's Taylor columns at N=512: a quintuple pole at 1/0.9
# (taylor read 3.8e-12 from it, 8.8e-9 before its refinement pass) and a slowly
# decaying series (6.7e-18)
SERIES = {"alpha(0.9)^5": 1e-11, "alpha(0.99)": 1e-16}


@pytest.mark.parametrize("text", sorted(SERIES))
def test_taylor_column_to_forty_digits(text):
    ref = series(text, 512)
    got = taylor(parse_symbol(text), 512)
    assert max(abs(complex(g) - r) for g, r in zip(got, ref)) <= SERIES[text]


NORMS = [
    ("(z^2+z^3)/2", {2: 0.5, 3: 0.5}, 4),  # (3/8)^(1/4)
    # sqrt(0.33) and sqrt(0.39) for decimal coefficients; the doubles differ by ~1e-17
    ("0.5 + 0.2*z^3 + 0.2*z^4096", {0: 0.5, 3: 0.2, 4096: 0.2}, 2),
    ("0.5 + 0.2*z^3 + 0.2*z^4096", {0: 0.5, 3: 0.2, 4096: 0.2}, 4),
]


@pytest.mark.parametrize("text, coeffs, p", NORMS)
def test_p_norm_to_forty_digits(text, coeffs, p):
    # measured relative errors 4.5e-18, 1.3e-16 and 1.8e-16
    ref = poly_norm(coeffs, p)
    assert abs(p_norm(parse_symbol(text), p).value - ref) <= 1e-15 * ref


def test_exact_fourth_norm_closed_form():
    exact = (mp.mpf(3) / 8) ** mp.mpf(0.25)
    assert abs(poly_norm({2: 0.5, 3: 0.5}, 4) - exact) < mp.mpf(10) ** -38


def test_reference_floats_survive_the_report_writer():
    refs = [alpha_distance(0.5, 16)] + [poly_norm(c, p) for _, c, p in NORMS]
    for x in map(float, refs):
        back = json.loads(json_dumps({"x": x}))["x"]
        assert struct.pack("<d", back) == struct.pack("<d", x)
