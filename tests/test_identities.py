"""Identities of the paper's setting, checked on symbols drawn from a fixed seed."""

import numpy as np
import pytest

from hardyop import (Symbol, alpha, comp_matrix, constant, distance, norm_bounds, op_norm,
                     restricted_norm, validate_selfmap, weighted_matrix)
from hardyop.cli import main
from hardyop.symbolic import format_symbol, sym_mul


def _origin_fixing_symbols() -> list[Symbol]:
    """Eight selfmaps fixing 0: real and complex c1 z + c2 z^2 + c3 z^3 with
    sum |c_k| = 0.9, rotated two-term maps lam psi(mu z) with psi real and
    |lam| = |mu| = 1, and z alpha(p)."""
    rng = np.random.default_rng(20070216)
    out = []
    for c in (rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3),
              rng.normal(size=3) + 1j * rng.normal(size=3),
              rng.normal(size=3) + 1j * rng.normal(size=3)):
        out.append(Symbol(np.concatenate([[0.0], 0.9 * c / np.abs(c).sum()])))
    for _ in range(2):
        a, b = rng.uniform(-1, 1, 2)
        lam, mu = np.exp(2j * np.pi * rng.uniform(size=2))
        scale = 0.95 / (abs(a) + abs(b))
        out.append(Symbol(np.array([0.0, lam * mu * a * scale, lam * mu**2 * b * scale])))
    for p in (rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())):
        out.append(sym_mul(Symbol(np.array([0.0, 1.0])), alpha(p)))
    return out


SYMBOLS = _origin_fixing_symbols()


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("s", SYMBOLS, ids=[f"s{k}" for k in range(len(SYMBOLS))])
def test_restriction_is_the_weighted_compression_one_size_up(s, N):
    # for s(0) = 0 the h20 compression at N is T_{s,s} = C_s M_z at N + 1 less
    # a zero row and column, and T_{s,s} at N is a submatrix of it:
    # weighted_N <= restricted_N = weighted_{N+1}
    r = restricted_norm(s, N)
    assert abs(r - op_norm(weighted_matrix(s, s, N + 1))) <= 1e-14 * r
    assert op_norm(weighted_matrix(s, s, N)) <= r + 1e-14


def _symbols_off_the_origin() -> list[Symbol]:
    """Four selfmaps with phi(0) != 0: real and complex c0 + c1 z + c2 z^2 + c3 z^3
    with sum |c_k| = 0.9, and alpha(p) for a real and a complex p."""
    rng = np.random.default_rng(20070217)
    out = [Symbol(0.9 * c / np.abs(c).sum())
           for c in (rng.uniform(-1, 1, 4), rng.normal(size=4) + 1j * rng.normal(size=4))]
    out.append(alpha(rng.uniform(0.1, 0.8)))
    out.append(alpha(rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())))
    return out


ALL_SYMBOLS = SYMBOLS + _symbols_off_the_origin()
ALL_IDS = [f"s{k}" for k in range(len(ALL_SYMBOLS))]


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=ALL_IDS)
def test_compression_is_below_the_norm_upper_bound(s, N):
    # ||C_s|| <= sqrt((1 + |s(0)|) / (1 - |s(0)|)), and a compression is a lower bound of ||C_s||;
    # inner symbols fixing 0 meet the bound 1 exactly, so allow rounding (4.4e-16 seen)
    upper = norm_bounds(s.value_at_zero())[1]
    assert op_norm(comp_matrix(s, N)) <= upper * (1 + 1e-14)


@pytest.mark.parametrize("N", [16, 64])
def test_distance_is_symmetric(N):
    for a, b in zip(ALL_SYMBOLS, ALL_SYMBOLS[1:]):
        assert distance(a, b, N) == distance(b, a, N)


def _rotated(psi: Symbol, lam: complex, mu: complex) -> Symbol:
    """lam psi(mu z)."""
    return Symbol(lam * psi.num * mu ** np.arange(psi.num.size),
                  psi.den * mu ** np.arange(psi.den.size))


REAL_CORES = [s for s in ALL_SYMBOLS if not np.any(s.num.imag) and not np.any(s.den.imag)]


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("psi", REAL_CORES, ids=[f"psi{k}" for k in range(len(REAL_CORES))])
def test_rotation_keeps_every_compression_norm(psi, N):
    # C_{lam psi(mu z)} = D_mu C_psi D_lam with unitary diagonal D, at every N
    rng = np.random.default_rng(N)
    lam, mu = np.exp(2j * np.pi * rng.uniform(size=2))
    expected = op_norm(comp_matrix(psi, N))
    assert abs(op_norm(comp_matrix(_rotated(psi, lam, mu), N)) - expected) <= 1e-13 * expected


def _selfmap_verdict_cases() -> list[tuple[Symbol, bool]]:
    """Seeded symbols with the verdict their construction forces, every sup at
    most 0.9, exactly 1, or at least 1.1: polynomials with coefficient sum
    |c_k| = 0.9 (phi(0) != 0 in half of them) or |phi(1)| = 1.1; rotated
    automorphisms lam alpha_p(mu z) (inner, sup 1), also scaled by 1.1;
    constants of modulus 0.9, 1 and 1.1; and disguised constants c den / den."""
    rng = np.random.default_rng(20070218)
    cases = []
    for k in range(8):
        c = rng.normal(size=2 + k % 4) + 1j * rng.normal(size=2 + k % 4) * (k % 2)
        if k < 4:
            c[0] = 0.0
        cases.append((Symbol(0.9 * c / np.abs(c).sum()), True))
        cases.append((Symbol(1.1 * c / abs(c.sum())), False))
    for _ in range(3):
        p = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
        lam, mu = np.exp(2j * np.pi * rng.uniform(size=2))
        num, den = np.array([p, -mu]), np.array([1.0, -np.conj(p) * mu])
        cases.append((Symbol(lam * num, den), True))
        cases.append((Symbol(1.1 * lam * num, den), False))
    for unit in (1.0, -1.0, 1j, -1j):
        phase = np.exp(2j * np.pi * rng.uniform())
        den = np.array([1.0, rng.uniform(-0.5, 0.5) + 0.5j * rng.uniform(-1, 1)])
        cases += [(constant(0.9 * phase), True), (constant(unit), False),
                  (constant(1.1 * phase), False),
                  (Symbol(0.9 * phase * den, den), True), (Symbol(unit * den, den), False)]
    return cases


SELFMAP_CASES = _selfmap_verdict_cases()


@pytest.mark.parametrize("s, selfmap", SELFMAP_CASES,
                         ids=[f"case{k}" for k in range(len(SELFMAP_CASES))])
def test_selfmap_verdicts(s, selfmap, capsys):
    # an accepted symbol maps the disk into itself by an independent dense scan;
    # a rejected one is refused by every command, as an input error
    assert validate_selfmap(s).is_selfmap == selfmap
    text = format_symbol(s)
    if selfmap:
        assert abs(s.value_at_zero()) < 1
        assert np.abs(s(np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14)))).max() <= 1 + 1e-9
        return
    for args in (["norm", text, "-N", "8"], ["distance", text, "0.5*z", "-N", "8"],
                 ["distance", "0.5*z", text, "-N", "8"], ["nrange", text, "-N", "8"],
                 ["psolve", text, "-N", "16"]):
        assert main(args) == 2
        assert "not a selfmap" in capsys.readouterr().err
