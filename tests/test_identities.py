"""Identities of the paper's setting, checked on symbols drawn from a fixed seed."""

import numpy as np
import pytest

from hardyop import Symbol, alpha, op_norm, restricted_norm, weighted_matrix
from hardyop.symbolic import sym_mul


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
