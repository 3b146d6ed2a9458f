"""40-digit references: values computed in mpmath from exact Taylor
coefficients, against which the double-precision results state their error."""

import json
import struct

import pytest

from hardyop import compop, p_norm, parse_symbol
from hardyop.cli import json_dumps

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


def alpha_distance(p: float, N: int):
    """||P_N (C_alpha(p) - I) P_N|| for real p: column k of C_alpha holds the
    first N Taylor coefficients of alpha^k, alpha = (p - z)/(1 - p z)."""
    p = mp.mpf(p)
    a = [p] + [(p * p - 1) * p ** (n - 1) for n in range(1, N)]
    M, power = mp.matrix(N, N), [mp.mpf(1)] + [mp.mpf(0)] * (N - 1)
    for k in range(N):
        for n in range(N):
            M[n, k] = power[n] - (n == k)
        power = [mp.fsum(power[i] * a[n - i] for i in range(n + 1)) for n in range(N)]
    return mp.sqrt(max(mp.eigsy(M.T * M, eigvals_only=True)))


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
