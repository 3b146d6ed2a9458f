"""Rational selfmaps of the unit disk: construction, a small DSL, Taylor
expansion, boundary sampling, composition, iteration, fixed points, and the
coefficient identities that decide equality, proportionality and constant
boundary modulus.

A symbol is a rational function num/den with complex coefficients, stored
low-to-high degree.  The denominator is required to be zero-free on the
closed unit disk, so every symbol extends continuously to the unit circle.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    ConvergenceError,
    DegreeCapError,
    NotSelfmapError,
    ParseError,
    PreconditionError,
    UnitDiskPoleError,
)

# CoeffVec: complex128 1-D array of Taylor/polynomial coefficients, index = degree.
CoeffVec = np.ndarray

MAX_DEGREE = 4096           # rational degree cap
POLE_MARGIN = 1e-9          # denominator roots must satisfy |root| >= 1 + POLE_MARGIN
SELFMAP_TOL = 1e-9          # refined sup |phi| <= 1 + SELFMAP_TOL
MIN_GRID = 1024             # smallest boundary grid
SUP_OVERSAMPLE = 4          # sup scan: shifted copies of the boundary grid
SUP_PEAKS = 16              # sup scan: local maxima refined
FIXED_POINT_TOL = 1e-12     # fixed_point: |phi(z) - z| (Newton) or orbit step
COEFF_TOL = 1e-10           # coefficient identities: max residual (ratio: times max(1, |c|))
ORIGIN_TOL = 1e-12          # |phi(0)| <= ORIGIN_TOL counts as fixing the origin
TAYLOR_BLOCK = 64           # taylor: coefficients per block of the series division
BLOCK = 1 << 15             # largest circle grid sampled at once, and the stored grid's cap


def trim(c) -> CoeffVec:
    """Canonical coefficient vector: complex128, trailing exact zeros dropped;
    an empty input is the zero polynomial."""
    a = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    n = a.size
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n].copy() if n else np.zeros(1, dtype=complex)


def _writeprotect(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SelfmapDiagnostics:
    """Result of validating a symbol as an analytic selfmap of the disk."""

    boundary_sup: float     # refined sup of |phi| on the circle
    is_selfmap: bool
    grid_size: int          # boundary grid, sized from the degree
    grid_sup: float         # largest grid sample


@dataclass(frozen=True, eq=False)
class Symbol:
    """Rational function num/den, canonicalized so that den(0) = 1.

    Immutable after construction.  Construction rejects denominators with a
    root on the closed unit disk and rational degrees above the cap.
    """

    num: CoeffVec
    den: CoeffVec = field(default_factory=lambda: np.ones(1, dtype=complex))

    def __post_init__(self):
        num = trim(self.num)
        den = trim(self.den)
        if np.all(den == 0):
            raise UnitDiskPoleError("denominator is identically zero")
        if num.size - 1 > MAX_DEGREE or den.size - 1 > MAX_DEGREE:
            raise DegreeCapError(
                f"rational degree {max(num.size, den.size) - 1} exceeds cap {MAX_DEGREE}"
            )
        _require_finite(num, den)
        _check_poles(den)
        # den(0) != 0 by the pole check; normalize den(0) = 1, trimming any underflow.
        if den[0] != 1.0:
            with np.errstate(over="ignore", invalid="ignore"):
                num = trim(num / den[0])
                den = trim(den / den[0])
            _require_finite(num, den)
        object.__setattr__(self, "num", _writeprotect(num))
        object.__setattr__(self, "den", _writeprotect(den))
        object.__setattr__(self, "_diag", None)
        object.__setattr__(self, "_modulus_products", None)
        object.__setattr__(self, "_moduli", _writeprotect(np.empty(0)))

    # -- structure ---------------------------------------------------------

    @property
    def num_degree(self) -> int:
        return self.num.size - 1

    @property
    def den_degree(self) -> int:
        return self.den.size - 1

    @property
    def degree(self) -> int:
        return max(self.num_degree, self.den_degree)

    @property
    def is_polynomial(self) -> bool:
        return self.den.size == 1

    @functools.cached_property
    def is_constant(self) -> bool:
        """Whether num = c den for a scalar c, by ratio's test; for |c| < 1 the
        residual must also be at most COEFF_TOL (1 - |c|)^2, since near the circle
        tiny perturbations move ||C_phi|| off the constant's closed form."""
        P, Q = _same_length(self.num, self.den)
        c = ratio(P, Q)
        return c is not None and (abs(c) >= 1 or bool(
            np.max(np.abs(P - c * Q)) <= COEFF_TOL * (1 - abs(c)) ** 2))

    def __call__(self, z):
        """Evaluate num(z)/den(z) by poly_eval's Horner rule over the nonzero
        terms; accepts scalars or arrays."""
        return poly_eval(self.num, z) / poly_eval(self.den, z)

    def value_at_zero(self) -> complex:
        return complex(self.num[0])  # den(0) == 1 after normalization

    def __str__(self) -> str:
        return format_symbol(self)

    def __repr__(self) -> str:
        return f"Symbol({format_symbol(self)!r})"


def _require_finite(num: CoeffVec, den: CoeffVec) -> None:
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise PreconditionError("symbol coefficients must be finite")


def _check_poles(den: CoeffVec) -> None:
    """Reject denominators with a root of modulus < 1 + POLE_MARGIN."""
    if den.size == 1:
        return
    # Dominance shortcut: sum |d_k| <= (1 - 1e-4) |d_0| keeps |den| >= 1e-4 |d_0|
    # on the closed disk, which at degree <= 4096 pushes every root beyond the
    # 1 + 1e-9 margin without an eigenvalue solve.
    tail = float(np.sum(np.abs(den[1:])))
    if tail <= (1.0 - 1e-4) * abs(den[0]):
        return
    # top coefficients below eps^2 max|d_k| hold only far roots; polyroots would divide by them
    keep = np.flatnonzero(np.abs(den) > np.finfo(float).eps ** 2 * np.abs(den).max())
    moduli = np.abs(npp.polyroots(den[:keep[-1] + 1]))
    if moduli.size and float(moduli.min()) < 1.0 + POLE_MARGIN:
        raise UnitDiskPoleError(
            f"denominator has a root of modulus {float(moduli.min()):.12g} "
            "on or near the closed unit disk"
        )


def require_selfmap(s: Symbol, what: str = "symbol") -> None:
    d = validate_selfmap(s)
    if not d.is_selfmap:
        raise NotSelfmapError(
            f"{what} is not a selfmap of the disk: boundary sup = {d.boundary_sup:.12g}"
        )


def fixes_origin(s: Symbol) -> bool:
    return abs(s.value_at_zero()) <= ORIGIN_TOL


def require_origin_fixed(s: Symbol, what: str) -> None:
    if not fixes_origin(s):
        raise PreconditionError(f"{what} needs a symbol fixing the origin")


# ---------------------------------------------------------------------------
# constructors


def constant(p) -> Symbol:
    return Symbol(np.array([complex(p)]))


def identity() -> Symbol:
    return Symbol(np.array([0.0, 1.0], dtype=complex))


def alpha(p) -> Symbol:
    """Disk automorphism (p - z)/(1 - conj(p) z); an involution."""
    p = complex(p)
    if abs(p) >= 1:
        raise UnitDiskPoleError(f"alpha parameter must lie in the open disk, got |p|={abs(p):.6g}")
    return Symbol(np.array([p, -1.0]), np.array([1.0, -p.conjugate()]))


def blaschke(points) -> Symbol:
    """Finite Blaschke product prod alpha(p_i)."""
    num = np.ones(1, dtype=complex)
    den = np.ones(1, dtype=complex)
    for p in points:
        a = alpha(p)
        num = poly_product(num, a.num)
        den = poly_product(den, a.den)
    return Symbol(num, den)


# ---------------------------------------------------------------------------
# coefficient kernels


def poly_product(a: CoeffVec, b: CoeffVec, length: int | None = None) -> CoeffVec:
    """Coefficients of the product a b, truncated to `length` if given.

    Adds one shifted multiple of one factor per nonzero term of the sparser
    factor (the shorter, then the first, on a tie): c0 + c1 z^4000 times its
    reflection costs two vector additions, where np.convolve does 16 million
    multiply-adds.  When the sparser factor has no zero coefficient there is
    no term to skip, and the product is one np.convolve: 3.4 us against
    about 10 us term by term for two complex linear factors, and the 183 DSL
    texts of operator-sweep and symbol-kernels seed 3 parse in 92 ms, against
    92-110 ms term by term alone and 98-100 ms with npp.polymul (2-core
    x86-64).  Coefficient j reads coefficients 0..j of each factor only, so
    the kept coefficients of a truncated product are exact.  With real
    coefficients, a term-wise output coefficient that receives at most two
    terms is the rounded sum of two rounded products, whichever factor is
    the sparser, and for 0.4 + 0.5 z^4000 times its reflection it equals
    np.convolve's bitwise; complex products, and the fused multiply-adds of
    a BLAS dot product, carry no such guarantee.  Overflow gives inf without
    a warning, as in np.convolve; Symbol rejects it.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    terms, other = np.count_nonzero(a), np.count_nonzero(b)
    if (terms, a.size) > (other, b.size):
        a, b, terms = b, a, other
    size = a.size + b.size - 1 if length is None else min(length, a.size + b.size - 1)
    if terms == a.size:  # no zero coefficient to skip
        # a writable copy: np.convolve takes a BLAS dot per output when its
        # one-coefficient kernel is read-only, as Symbol coefficients are
        # (96 us against 16 us for 1 x 4001 complex coefficients)
        return np.convolve(a.copy(), b)[:size]
    out = np.zeros(size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in np.flatnonzero(a).tolist():
            if j >= size:
                break
            m = min(b.size, size - j)
            out[j:j + m] += a[j] * b[:m]
    return out


def powers(c: CoeffVec, n_max: int, length: int) -> Iterator[CoeffVec]:
    """Yield c, c^2, ..., c^n_max, each truncated to its first `length`
    coefficients by poly_product.  Coefficient j of c^n reads only
    coefficients 0..j of c^(n-1), so truncating every step leaves the kept
    coefficients exact.  The product adds one shifted copy of one factor per
    nonzero term of the sparser one, so a sparse c (0.5 z + 0.5 z^4096)
    costs O(length) per power, not O(length^2).
    """
    p = np.ones(1, dtype=complex)
    for _ in range(n_max):
        p = poly_product(c, p, length)
        yield p


def poly_eval(c: CoeffVec, z):
    """c(z) for a scalar or an array z, by Horner's rule over the nonzero
    terms: p = c_k + p z^gap, from the highest term down, then times z^k for
    the lowest term's degree k.  On a dense polynomial every gap is 1 and
    this is npp.polyval's arithmetic exactly; c0 + c1 z^4000 costs one
    power of z, not 4000 Horner steps.
    """
    c = np.asarray(c)
    nz = np.flatnonzero(c).tolist()
    if not nz:  # the zero polynomial, possibly with no coefficients
        return c.dtype.type(0) + z * 0
    p = c[nz[-1]] + z * 0
    zg, gap = z, 1  # zg = z^gap
    for k, above in zip(nz[-2::-1], nz[:0:-1]):
        if above - k != gap:
            gap = above - k
            zg = z ** gap
        p = c[k] + p * zg
    return p * z ** nz[0] if nz[0] else p


# ---------------------------------------------------------------------------
# core operations


def taylor(s: Symbol, N: int) -> CoeffVec:
    """First N Taylor coefficients of num/den by blocked series division, with
    one pass of iterative refinement.

    The first TAYLOR_BLOCK coefficients r of 1/den come from the sequential
    recurrence; every block of TAYLOR_BLOCK coefficients is then r times the
    block of num less the carry of the coefficients before it, two
    np.convolve calls: the carry is the 'valid' convolution of den with the
    previous deg(den) coefficients, beside the block's own, still zero.  The
    blocked division's error grows with r, which is large for clustered poles,
    so the residual num - den c is divided the same way and added: at N=2048
    the largest coefficient error of alpha(0.9)^5 falls from 8.8e-9 to 3.5e-12,
    of alpha(0.7)^10 from 1.0e-6 to 1.0e-10 and of alpha(0.5)^20 from 3.4e-3 to
    8.9e-9, against powers of taylor(alpha(p), N) formed by np.convolve.
    Blocks start at multiples of TAYLOR_BLOCK whatever N is, and the residual's
    coefficient k reads only coefficients up to k, so taylor(s, n) is bitwise
    a prefix of taylor(s, N) for n <= N.  64 was the fastest of 16, 32, 64,
    128 and 256 on taylor(s, 2048) of six rational symbols of degree 1 to 101
    (2-core x86-64, OpenBLAS): 0.66-0.79 ms for one pass, against 6.2-6.9 ms
    for the recurrence alone.  Exact for polynomial symbols once N exceeds the
    degree.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    num, den = s.num, s.den
    if den.size == 1:
        out = np.zeros(N, dtype=complex)
        m = min(N, num.size)
        out[:m] = num[:m]
        return out
    B, dd = TAYLOR_BLOCK, den.size - 1
    n = -(-N // B) * B
    r = np.zeros(B, dtype=complex)  # 1/den, by the recurrence (den[0] == 1)
    r[0] = 1.0
    for k in range(1, B):
        j = min(k, dd)
        r[k] = -np.dot(den[1:j + 1], r[k - j:k][::-1])

    def divide(top: np.ndarray) -> np.ndarray:
        c = np.zeros(dd + n, dtype=complex)  # c[dd + k] = coefficient k of top/den
        for k in range(0, n, B):
            carry = np.convolve(c[k:k + dd + B], den, "valid")
            c[dd + k:dd + k + B] = np.convolve(r, top[k:k + B] - carry)[:B]
        return c

    top = np.zeros(n, dtype=complex)
    top[:min(n, num.size)] = num[:n]
    c = divide(top)
    fix = divide(top - np.convolve(c, den, "valid"))
    return c[dd:dd + N] + fix[dd:dd + N]


def circle_values(s: Symbol, K: int, shift: float = 0.0) -> np.ndarray:
    """Values of the symbol at e^{i(shift + 2 pi k/K)}, k = 0..K-1.

    z^K is constant on these points, so num and den, turned by shift, each take
    one unnormalized inverse FFT, which zero-pads them to K; only one longer
    than K is first folded modulo K.  A polynomial's denominator is 1 and takes
    none, which halves the cost of sampling it.  On power-of-two grids the
    values equal the ratio of the 1/K-normalized transforms bitwise.
    """
    if K < 1:
        raise ValueError("circle grid must have at least one point")

    def folded_ifft(c: CoeffVec) -> np.ndarray:
        if shift != 0.0:
            c = c * np.exp(1j * shift * np.arange(c.size))
        if c.size > K:
            c = np.pad(c, (0, -c.size % K)).reshape(-1, K).sum(axis=0)
        return np.fft.ifft(c, n=K, norm="forward")

    values = folded_ifft(s.num)
    return values if s.is_polynomial else values / folded_ifft(s.den)


def boundary_moduli(s: Symbol, K: int, shift: float = 0.0) -> np.ndarray:
    """|phi| at e^{i(shift + 2 pi k/K)}, k = 0..K-1, read-only.

    The symbol stores one unshifted grid of M <= BLOCK points, the finest
    dyadic one sampled so far; validate_selfmap's scan starts it.  A grid whose
    points it holds (K divides M, shift a multiple of 2 pi/M) is a strided view
    of it.  The M-point grid turned by half a step, pi/M, is sampled and, while
    2M <= BLOCK, merged with it into the stored 2M-point grid; any other grid is
    sampled afresh.
    """
    g = s._moduli
    M = g.size
    j = shift * M / (2.0 * np.pi)  # the turn in steps of the stored grid
    if K <= M and M % K == 0 and j.is_integer() and 0 <= j < M // K:
        return g[int(j)::M // K]
    v = np.abs(circle_values(s, K, shift))
    if K == M and j == 0.5 and 2 * M <= BLOCK:
        object.__setattr__(s, "_moduli", _writeprotect(np.stack((g, v), axis=1).ravel()))
        return s._moduli[1::2]
    return _writeprotect(v)


def compose(f: Symbol, g: Symbol) -> Symbol:
    """Rational representation of f(g(z)).

    Requires g to be a validated selfmap; f is analytic on the closed disk by
    the denominator invariant, so the composite is well defined there.
    """
    require_selfmap(g, "inner factor of composition")
    D = max(f.num_degree, f.den_degree)
    if D * g.degree > MAX_DEGREE:
        raise DegreeCapError(f"composition degree {D * g.degree} exceeds cap {MAX_DEGREE}")
    # f = P/Q.  With common power D:  f(g) = sum p_k A^k B^(D-k) / sum q_k A^k B^(D-k)
    # where g = A/B.
    a_pows = [np.ones(1, dtype=complex), *powers(g.num, D, D * g.degree + 1)]
    b_pows = [np.ones(1, dtype=complex), *powers(g.den, D, D * g.degree + 1)]
    num = np.zeros(D * g.degree + 1, dtype=complex)
    den = np.zeros(D * g.degree + 1, dtype=complex)
    for k in range(D + 1):
        basis = poly_product(a_pows[k], b_pows[D - k])
        if k < f.num.size and f.num[k] != 0:
            num[:basis.size] += f.num[k] * basis
        if k < f.den.size and f.den[k] != 0:
            den[:basis.size] += f.den[k] * basis
    return Symbol(num, den)


def iterate(s: Symbol, n: int) -> Symbol:
    """n-fold self composition s o s o ... o s, by repeated squaring: the
    binary digits of n select among s, s o s, (s o s) o (s o s), ..., so n
    costs O(log n) compositions (iterate(s, 2) is compose(s, s))."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    require_selfmap(s, "iterated symbol")
    result, power = None, s  # power = s iterated 2^j times
    while True:
        if n & 1:
            result = power if result is None else compose(power, result)
        n >>= 1
        if not n:
            return result
        power = compose(power, power)


def fixed_point(s: Symbol) -> complex:
    """Interior fixed point of a selfmap, to a residual of FIXED_POINT_TOL.

    Damped Newton from the origin (at most 200 steps, halving steps that leave
    the disk or fail to reduce the residual), with a forward-orbit fallback of
    at most 100000 steps; the orbit converges whenever a non-automorphic
    selfmap has an interior fixed point.  The coefficients of num' and den'
    are formed once per call, in one vector product each.
    """
    require_selfmap(s)
    dnum, dden = (np.arange(1, c.size) * c[1:] for c in (s.num, s.den))

    def slope(z: complex) -> complex:  # phi'(z) - 1
        nz, dz = poly_eval(s.num, z), poly_eval(s.den, z)
        return (poly_eval(dnum, z) * dz - nz * poly_eval(dden, z)) / dz**2 - 1.0

    z = 0.0 + 0.0j
    gz = complex(s(z)) - z
    for _ in range(200):
        if abs(gz) <= FIXED_POINT_TOL:
            if abs(z) < 1.0 - 1e-12:
                return z
            break
        gp = slope(z)
        if abs(gp) < 1e-14:
            break
        step = gz / gp
        accepted = False
        for _ in range(60):
            z_new = z - step
            if abs(z_new) < 1.0:
                g_new = complex(s(z_new)) - z_new
                if abs(g_new) < abs(gz):
                    z, gz = z_new, g_new
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    # Orbit fallback (Denjoy-Wolff).
    z = 0.0 + 0.0j
    for _ in range(100_000):
        z_next = complex(s(z))
        if abs(z_next - z) <= FIXED_POINT_TOL:
            if abs(z_next) < 1.0 - 1e-12:
                return z_next
            raise ConvergenceError(
                f"orbit converged to the boundary point {z_next:.12g}; no interior fixed point"
            )
        z = z_next
    raise ConvergenceError(
        "no interior fixed point found (Newton stalled and the orbit did not settle); "
        "the symbol may be an automorphism without interior fixed point"
    )


def validate_selfmap(s: Symbol) -> SelfmapDiagnostics:
    """Refined boundary sup of a symbol and the selfmap verdict, cached.

    The boundary grid has the smallest power of two of at least
    max(MIN_GRID, 4 (degree + 1)) points, so no z^k with k <= degree aliases.
    The sup scan takes SUP_OVERSAMPLE shifted copies of it, which make up the
    finer grid that starts boundary_moduli's store (or its finest sub-grid of
    at most BLOCK points).  Nested grids through Symbol.__call__ refine the
    SUP_PEAKS local maxima with the highest parabolic estimates, since the raw
    samples misrank the ~4096 near-equal maxima of a degree-4096 symbol.
    Poles on or near the closed disk are rejected at construction, so a refined
    sup within 1 + 1e-9 is a selfmap; a constant, whose sup |phi(0)| cannot tell
    |phi(0)| = 1 apart, is one when |phi(0)| < 1.
    """
    if s._diag is not None:
        return s._diag
    K = 1 << (max(MIN_GRID, 4 * (s.degree + 1)) - 1).bit_length()
    R, h = SUP_OVERSAMPLE, 2.0 * np.pi / (K * SUP_OVERSAMPLE)
    w = np.empty(K * R + 2)  # w[m + 1] = |phi(e^{i h m})|, wrapped at both ends
    v = w[1:-1].reshape(K, R)
    for k in range(R):
        v[:, k] = np.abs(circle_values(s, K, h * k))
    w[0], w[-1] = w[-2], w[1]
    object.__setattr__(s, "_moduli", _writeprotect(w[1:-1:max(1, K * R // BLOCK)].copy()))
    m = np.flatnonzero((w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:]))
    l, c, r = w[m], w[m + 1], w[m + 2]
    est = c + (l - r) ** 2 / (8.0 * np.maximum(2.0 * c - l - r, np.finfo(float).tiny))
    t = h * m[np.argsort(est)[-SUP_PEAKS:]]
    # nested grid: 17 points across [t - h, t + h], each peak to its best (the next
    # level's middle, so the sup never falls), h shrunk 8-fold until h <= 1e-10
    while h > 1e-10:
        x = t[:, None] + np.linspace(-h, h, 17)
        best = np.abs(s(np.exp(1j * x)))
        t = x[np.arange(t.size), np.argmax(best, axis=1)]
        h /= 8.0
    sup = max(float(v.max()), float(best.max()))
    object.__setattr__(s, "_diag", SelfmapDiagnostics(
        boundary_sup=sup, grid_size=K, grid_sup=float(v[:, 0].max()),
        is_selfmap=abs(s.value_at_zero()) < 1.0 if s.is_constant else sup <= 1.0 + SELFMAP_TOL))
    return s._diag


# ---------------------------------------------------------------------------
# coefficient identities: f = c g iff f.num g.den = c g.num f.den, and |f| = c
# on the circle iff the modulus products are proportional with ratio c^2


def _same_length(p: CoeffVec, q: CoeffVec) -> np.ndarray:
    """p and q zero-padded to one length, as the two rows of one array."""
    pq = np.zeros((2, max(p.size, q.size)), dtype=complex)
    pq[0, :p.size], pq[1, :q.size] = p, q
    return pq


def cross_products(f: Symbol, g: Symbol) -> np.ndarray:
    """f.num g.den and g.num f.den, zero-padded to one length (two rows)."""
    return _same_length(poly_product(f.num, g.den), poly_product(g.num, f.den))


def modulus_products(s: Symbol) -> tuple[CoeffVec, CoeffVec]:
    """z^deg(den) num refl(num) and z^deg(num) den refl(den), zero-padded to one
    length, where refl(q) = z^deg(q) conj(q(1/conj z)) has the conjugate-reversed
    coefficients.  On the circle they are z^(deg num + deg den) times |num|^2
    and |den|^2.  Computed once and stored on the symbol, read-only.
    """
    if s._modulus_products is None:
        pn = np.pad(poly_product(s.num, np.conj(s.num[::-1])), (s.den_degree, 0))
        pd = np.pad(poly_product(s.den, np.conj(s.den[::-1])), (s.num_degree, 0))
        object.__setattr__(s, "_modulus_products", tuple(map(_writeprotect, _same_length(pn, pd))))
    return s._modulus_products


def ratio(P: CoeffVec, Q: CoeffVec) -> complex | None:
    """The scalar c with P = c Q, or None.  c is read at the largest |Q_j| and
    accepted when max |P - c Q| <= COEFF_TOL max(1, |c|)."""
    j = int(np.argmax(np.abs(Q)))
    if Q[j] == 0:
        return None
    c = complex(P[j] / Q[j])
    if np.max(np.abs(P - c * Q)) <= COEFF_TOL * max(1.0, abs(c)):
        return c
    return None


def unit_powers(c: complex, n: int) -> CoeffVec:
    """c^k for k = 0..n-1 by a running product; the powers of conj(c) are
    exactly the conjugates of those of c."""
    p = np.full(n, complex(c))
    p[:1] = 1.0
    return np.cumprod(p)


def rotation_real(s: Symbol):
    """(lam, mu, psi) with s(z) = lam psi(mu z), |lam| = |mu| = 1 and psi
    real, or None; decided on the coefficients, since with den(0) = 1 this is
    num_k = lam mu^k num_psi_k and den_k = mu^k den_psi_k.

    mu is fitted from den's first nonzero coefficient of degree >= 1, else
    from the ratio of num's first two nonzero coefficients (1 for a
    monomial); lam from num's first nonzero coefficient, taken as conj(mu)
    when that also fits, so that lam mu = 1 whenever the form allows it.
    Accepted when every imaginary part left after the rotation is at most
    1e-14 (degree + 1) max |coefficient| over num and den.  None for real
    symbols (their compressions are real already) and for symbols of no such
    form.
    """
    num, den = s.num, s.den
    nz = np.flatnonzero(num)
    if nz.size == 0 or not (num.imag.any() or den.imag.any()):
        return None
    dz = np.flatnonzero(den[1:]) + 1
    if dz.size:
        k, u = dz[0], den[dz[0]]
    elif nz.size > 1:
        k, u = nz[1] - nz[0], num[nz[1]] * np.conj(num[nz[0]])
    else:
        k, u = 1, 1.0
    mu = complex(np.exp(1j * np.angle(u) / k))
    back = unit_powers(np.conj(mu), max(num.size, den.size))
    tol = 1e-14 * (s.degree + 1) * max(np.abs(num).max(), np.abs(den).max())
    pd = den * back[:den.size]
    if np.abs(pd.imag).max() > tol:
        return None
    for lam in (np.conj(mu), np.exp(1j * np.angle(num[nz[0]] * back[nz[0]]))):
        pn = num * back[:num.size] * np.conj(lam)
        if np.abs(pn.imag).max() <= tol:
            return complex(lam), mu, Symbol(pn.real, pd.real)
    return None


def taylor_close(f: Symbol, g: Symbol, tol: float = COEFF_TOL) -> bool:
    """Whether two symbols agree as analytic functions: their cross products
    agree coefficientwise within tol."""
    P, Q = cross_products(f, g)
    return bool(np.max(np.abs(P - Q)) <= tol)


# ---------------------------------------------------------------------------
# arithmetic used by the parser (rational field operations)


def sym_add(f: Symbol, g: Symbol) -> Symbol:
    num = npp.polyadd(poly_product(f.num, g.den), poly_product(g.num, f.den))
    return Symbol(num, poly_product(f.den, g.den))


def sym_sub(f: Symbol, g: Symbol) -> Symbol:
    num = npp.polysub(poly_product(f.num, g.den), poly_product(g.num, f.den))
    return Symbol(num, poly_product(f.den, g.den))


def sym_mul(f: Symbol, g: Symbol) -> Symbol:
    return Symbol(poly_product(f.num, g.num), poly_product(f.den, g.den))


def sym_div(f: Symbol, g: Symbol) -> Symbol:
    return Symbol(poly_product(f.num, g.den), poly_product(f.den, g.num))


def _poly_pow(c: CoeffVec, k: int) -> CoeffVec:
    """c^k for k >= 1 by repeated squaring; z^j to the k is written directly."""
    if k == 1:
        return c
    nz = np.flatnonzero(c)
    if nz.size == 1 and c[nz[0]] == 1:
        out = np.zeros(nz[0] * k + 1, dtype=complex)
        out[-1] = 1.0
        return out
    half = _poly_pow(c, k // 2)
    sq = poly_product(half, half)
    return poly_product(sq, c) if k & 1 else sq


def sym_pow(f: Symbol, k: int) -> Symbol:
    degree = abs(k) * max(1, f.degree)  # checked before any expansion
    if degree > MAX_DEGREE:
        raise DegreeCapError(f"rational degree {degree} exceeds cap {MAX_DEGREE}")
    if k == 0:
        return constant(1.0)
    base_num, base_den = (f.num, f.den) if k > 0 else (f.den, f.num)
    return Symbol(_poly_pow(base_num, abs(k)), _poly_pow(base_den, abs(k)))


def sym_neg(f: Symbol) -> Symbol:
    return Symbol(-f.num, f.den)


# ---------------------------------------------------------------------------
# DSL parser
#
# Grammar (ASCII):
#   expr     := comp
#   comp     := additive ('@' additive)*          composition, left assoc
#   additive := term (('+'|'-') term)*
#   term     := factor (('*'|'/') factor)*
#   factor   := ('+'|'-')* atom ('^' signed-integer)?
#   atom     := NUMBER | 'i' | 'z' | call | '(' expr ')'
#   call     := 'alpha' '(' expr ')' | 'const' '(' expr ')'
#             | 'blaschke' '(' expr (',' expr)* ')' | 'iter' '(' expr ',' integer ')'
# NUMBER is a finite float literal with an optional trailing 'i' (imaginary
# unit); arguments of alpha/const/blaschke must evaluate to constants.  comp,
# additive and term are the levels of _LEVELS, parsed by one loop.

_KEYWORDS = {"z", "i", "alpha", "blaschke", "const", "iter"}
_TOKEN = re.compile(r"""\s*(?:   # one token per match, leading whitespace included
    (?P<number>(?P<lit>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<imag>i(?!\w))?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*/^@(),])
  | (?P<bad>\S))""", re.VERBOSE)
_LEVELS = ("@", "+-", "*/")   # binary operators, loosest first; all left assoc
_BINARY = {"@": compose, "+": sym_add, "-": sym_sub, "*": sym_mul, "/": sym_div}
_CALLS = {"alpha": alpha, "const": constant, "blaschke": lambda *pts: blaschke(pts)}
_Token = namedtuple("_Token", "kind value pos")


def _tokenize(text: str) -> list[_Token]:
    toks = []
    for m in _TOKEN.finditer(text):  # matches abut; only trailing whitespace is skipped
        kind = m.lastgroup
        word, pos = m[kind], m.start(kind)
        if kind == "number":
            val = float(m["lit"])
            if not math.isfinite(val):
                raise ParseError(f"numeric literal {m['lit']!r} is not finite", pos, text)
            toks.append(_Token(kind, complex(0.0, val) if m["imag"] else complex(val), pos))
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos, text)
        elif kind == "name" and word not in _KEYWORDS:
            raise ParseError(f"unknown identifier {word!r}", pos, text)
        else:
            toks.append(_Token(word, None, pos))
    return toks + [_Token("end", None, len(text))]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)[::-1]  # reversed, so next() pops

    def peek(self) -> _Token:
        return self.toks[-1]

    def next(self) -> _Token:
        return self.toks.pop()

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            self.fail(f"expected {kind!r}, found {t.kind!r}", t)
        return t

    def fail(self, msg: str, tok: _Token):
        raise ParseError(msg, tok.pos, self.text)

    def parse(self) -> Symbol:
        s = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.kind!r}", t)
        return s

    def expr(self, level: int = 0) -> Symbol:
        if level == len(_LEVELS):
            return self.factor()
        s = self.expr(level + 1)
        while self.peek().kind in _LEVELS[level]:
            tok = self.next()
            rhs = self.expr(level + 1)
            try:
                s = _BINARY[tok.kind](s, rhs)
            except NotSelfmapError as exc:  # only compose requires a selfmap
                raise ParseError(str(exc), tok.pos, self.text) from exc
        return s

    def sign(self) -> int:
        sign = 1
        while self.peek().kind in "+-":
            if self.next().kind == "-":
                sign = -sign
        return sign

    def factor(self) -> Symbol:
        sign = self.sign()
        s = self.atom()
        if self.peek().kind == "^":
            self.next()
            s = sym_pow(s, self.signed_int())
        return sym_neg(s) if sign < 0 else s

    def signed_int(self) -> int:
        sign = self.sign()
        t = self.expect("number")
        if t.value != int(t.value.real):
            self.fail("exponent must be an integer", t)
        return sign * int(t.value.real)

    def const_arg(self) -> complex:
        t = self.peek()
        s = self.expr()
        if not s.is_constant:
            self.fail("argument must be a constant", t)
        return s.value_at_zero()

    def const_args(self, many: bool) -> list[complex]:
        """'(' constant (',' constant)* ')'; one constant unless many."""
        self.expect("(")
        args = [self.const_arg()]
        while many and self.peek().kind == ",":
            self.next()
            args.append(self.const_arg())
        self.expect(")")
        return args

    def atom(self) -> Symbol:
        t = self.next()
        if t.kind == "number":
            return constant(t.value)
        if t.kind == "i":
            return constant(1j)
        if t.kind == "z":
            return identity()
        if t.kind == "(":
            s = self.expr()
            self.expect(")")
            return s
        if t.kind in _CALLS:
            args = self.const_args(many=t.kind == "blaschke")
            try:
                return _CALLS[t.kind](*args)
            except UnitDiskPoleError as exc:
                raise ParseError(str(exc), t.pos, self.text) from exc
        if t.kind == "iter":
            self.expect("(")
            s = self.expr()
            self.expect(",")
            n = self.signed_int()
            self.expect(")")
            if n < 1:
                self.fail("iteration count must be >= 1", t)
            return iterate(s, n)
        self.fail(f"unexpected {t.kind!r}", t)


def parse_symbol(text: str) -> Symbol:
    """Parse a symbol from the DSL; see the grammar in the module source."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0, text) from None


# ---------------------------------------------------------------------------
# printer (round-trips through parse_symbol to identical coefficients)


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_coeff(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re) if re >= 0 else f"({_fmt_real(re)})"
    if re == 0:
        return f"{_fmt_real(im)}i" if im >= 0 else f"({_fmt_real(im)}i)"
    sign = "+" if im >= 0 else "-"
    return f"({_fmt_real(re)}{sign}{_fmt_real(abs(im))}i)"


def _fmt_poly(coeffs: CoeffVec) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0 and coeffs.size > 1:
            continue
        if k == 0:
            terms.append(_fmt_coeff(c))
        elif k == 1:
            terms.append(f"{_fmt_coeff(c)}*z")
        else:
            terms.append(f"{_fmt_coeff(c)}*z^{k}")
    return " + ".join(terms)


def format_symbol(s: Symbol) -> str:
    """DSL text whose parse reproduces the symbol's coefficients exactly."""
    if s.is_polynomial:
        return _fmt_poly(s.num)
    return f"({_fmt_poly(s.num)})/({_fmt_poly(s.den)})"
