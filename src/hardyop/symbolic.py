"""Rational selfmaps of the unit disk: construction, a small DSL, Taylor
expansion, boundary sampling, composition, iteration, and fixed points.

A symbol is a rational function num/den with complex coefficients, stored
low-to-high degree.  The denominator is required to be zero-free on the
closed unit disk, so every symbol extends continuously to the unit circle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    ConvergenceError,
    DegreeCapError,
    NotSelfmapError,
    ParseError,
    UnitDiskPoleError,
)

# CoeffVec: complex128 1-D array of Taylor/polynomial coefficients, index = degree.
CoeffVec = np.ndarray

DEFAULT_MAX_DEGREE = 4096
POLE_MARGIN = 1e-9          # denominator roots must satisfy |root| >= 1 + POLE_MARGIN
SELFMAP_TOL = 1e-9          # refined sup |phi| <= 1 + SELFMAP_TOL
MIN_GRID = 1024             # smallest boundary grid
SUP_OVERSAMPLE = 4          # sup scan: shifted copies of the boundary grid
SUP_PEAKS = 16              # sup scan: local maxima refined
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def max_degree() -> int:
    """Degree cap for rational arithmetic; HARDYOP_MAX_DEGREE overrides."""
    raw = os.environ.get("HARDYOP_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        val = int(raw)
    except ValueError as exc:
        raise DegreeCapError(f"HARDYOP_MAX_DEGREE is not an integer: {raw!r}") from exc
    if val < 1:
        raise DegreeCapError(f"HARDYOP_MAX_DEGREE must be positive, got {val}")
    return val


def trim(c) -> CoeffVec:
    """Canonical coefficient vector: complex128, trailing exact zeros dropped."""
    a = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    n = a.size
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n].copy()


def _writeprotect(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SelfmapDiagnostics:
    """Result of validating a symbol as an analytic selfmap of the disk."""

    boundary_sup: float     # refined sup of |phi| on the circle
    sup_theta: float        # angle of the largest grid sample
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
        cap = max_degree()
        if num.size - 1 > cap or den.size - 1 > cap:
            raise DegreeCapError(
                f"rational degree {max(num.size, den.size) - 1} exceeds cap {cap}"
            )
        _check_poles(den)
        # den(0) != 0 is implied by the pole check; normalize den(0) = 1.
        if den[0] != 1.0:
            num = num / den[0]
            den = den / den[0]
        object.__setattr__(self, "num", _writeprotect(num))
        object.__setattr__(self, "den", _writeprotect(den))
        object.__setattr__(self, "_diag", None)

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

    @property
    def is_constant(self) -> bool:
        return self.is_polynomial and self.num.size == 1

    def __call__(self, z):
        """Evaluate num(z)/den(z); accepts scalars or arrays."""
        return npp.polyval(z, self.num) / npp.polyval(z, self.den)

    def value_at_zero(self) -> complex:
        return complex(self.num[0])  # den(0) == 1 after normalization

    def __str__(self) -> str:
        return format_symbol(self)

    def __repr__(self) -> str:
        return f"Symbol({format_symbol(self)!r})"

    # -- validation --------------------------------------------------------

    def diagnostics(self) -> SelfmapDiagnostics:
        """Selfmap diagnostics, computed once and cached."""
        return validate_selfmap(self)

    def is_selfmap(self) -> bool:
        return self.diagnostics().is_selfmap


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
    roots = npp.polyroots(den)
    moduli = np.abs(roots)
    if moduli.size and float(moduli.min()) < 1.0 + POLE_MARGIN:
        raise UnitDiskPoleError(
            f"denominator has a root of modulus {float(moduli.min()):.12g} "
            "on or near the closed unit disk"
        )


def require_selfmap(s: Symbol, what: str = "symbol") -> None:
    if not s.is_selfmap():
        d = s.diagnostics()
        raise NotSelfmapError(
            f"{what} is not a selfmap of the disk: boundary sup = {d.boundary_sup:.6g}"
        )


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


def blaschke(points, lead_power: int = 0) -> Symbol:
    """Finite Blaschke product z^m * prod alpha(p_i)."""
    num = np.zeros(lead_power + 1, dtype=complex)
    num[lead_power] = 1.0
    den = np.ones(1, dtype=complex)
    for p in points:
        a = alpha(p)
        num = npp.polymul(num, a.num)
        den = npp.polymul(den, a.den)
    return Symbol(num, den)


# ---------------------------------------------------------------------------
# core operations


def taylor(s: Symbol, N: int) -> CoeffVec:
    """First N Taylor coefficients of num/den by truncated series division.

    Exact for polynomial symbols once N exceeds the degree.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    num, den = s.num, s.den
    if den.size == 1:
        out = np.zeros(N, dtype=complex)
        m = min(N, num.size)
        out[:m] = num[:m]
        return out
    c = np.zeros(N, dtype=complex)
    dd = den.size - 1
    dtail = den[1:]
    for k in range(N):
        acc = num[k] if k < num.size else 0.0
        j = min(k, dd)
        if j:
            acc -= np.dot(dtail[:j], c[k - j:k][::-1])
        c[k] = acc  # den[0] == 1
    return c


def circle_grid(K: int) -> np.ndarray:
    """K equispaced angles 2 pi k / K, k = 0..K-1, on the unit circle."""
    return 2.0 * np.pi * np.arange(K) / K


def circle_values(s: Symbol, K: int, shift: float = 0.0) -> np.ndarray:
    """Values of the symbol at e^{i(shift + 2 pi k/K)}, k = 0..K-1.

    z^K is constant on these points, so num and den each fold modulo K into
    one inverse FFT; the 1/K factors cancel in the ratio.
    """
    if K < 1:
        raise ValueError("circle grid must have at least one point")

    def folded_ifft(c: CoeffVec) -> np.ndarray:
        c = c * np.exp(1j * shift * np.arange(c.size))
        return np.fft.ifft(np.pad(c, (0, -c.size % K)).reshape(-1, K).sum(axis=0))

    return folded_ifft(s.num) / folded_ifft(s.den)


def _golden_max(f, a, b, xtol: float):
    """Golden-section maximization of f on [a, b], elementwise over arrays of
    equal-width intervals; returns the best values."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while np.max(b - a) > xtol:
        up = f1 < f2  # keep [x1, b], else [a, x2]
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        x = np.where(up, a + _GOLDEN * (b - a), b - _GOLDEN * (b - a))
        fx = f(x)
        x1, f1, x2, f2 = (np.where(up, x2, x), np.where(up, f2, fx),
                          np.where(up, x, x1), np.where(up, fx, f1))
    return np.maximum(f1, f2)


def compose(f: Symbol, g: Symbol) -> Symbol:
    """Rational representation of f(g(z)).

    Requires g to be a validated selfmap; f is analytic on the closed disk by
    the denominator invariant, so the composite is well defined there.
    """
    require_selfmap(g, "inner factor of composition")
    D = max(f.num_degree, f.den_degree)
    if D * g.degree > max_degree():
        raise DegreeCapError(
            f"composition degree {D * g.degree} exceeds cap {max_degree()}"
        )
    # f = P/Q.  With common power D:  f(g) = sum p_k A^k B^(D-k) / sum q_k A^k B^(D-k)
    # where g = A/B.
    a_pows = [np.ones(1, dtype=complex)]
    b_pows = [np.ones(1, dtype=complex)]
    for _ in range(D):
        a_pows.append(npp.polymul(a_pows[-1], g.num))
        b_pows.append(npp.polymul(b_pows[-1], g.den))
    num = np.zeros(1, dtype=complex)
    den = np.zeros(1, dtype=complex)
    for k in range(D + 1):
        basis = npp.polymul(a_pows[k], b_pows[D - k])
        if k < f.num.size and f.num[k] != 0:
            num = npp.polyadd(num, f.num[k] * basis)
        if k < f.den.size and f.den[k] != 0:
            den = npp.polyadd(den, f.den[k] * basis)
    return Symbol(num, den)


def iterate(s: Symbol, n: int) -> Symbol:
    """n-fold self composition s o s o ... o s."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    require_selfmap(s, "iterated symbol")
    result = s
    for _ in range(n - 1):
        result = compose(s, result)
    return result


def _derivative_at(s: Symbol, z: complex) -> complex:
    nz, dz = npp.polyval(z, s.num), npp.polyval(z, s.den)
    dn, dd = npp.polyval(z, npp.polyder(s.num)), npp.polyval(z, npp.polyder(s.den))
    return (dn * dz - nz * dd) / dz**2


def fixed_point(s: Symbol, tol: float = 1e-12,
                max_newton: int = 200, max_orbit: int = 100_000) -> complex:
    """Interior fixed point of a selfmap.

    Damped Newton from the origin (halving steps that leave the disk or fail
    to reduce the residual), with a forward-orbit fallback; the orbit converges
    whenever a non-automorphic selfmap has an interior fixed point.
    """
    require_selfmap(s)
    z = 0.0 + 0.0j
    gz = complex(s(z)) - z
    for _ in range(max_newton):
        if abs(gz) <= tol:
            if abs(z) < 1.0 - 1e-12:
                return z
            break
        gp = _derivative_at(s, z) - 1.0
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
    for _ in range(max_orbit):
        z_next = complex(s(z))
        if abs(z_next - z) <= tol:
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
    The sup scan takes SUP_OVERSAMPLE shifted copies of it; golden-section
    search refines the SUP_PEAKS local maxima with the highest parabolic
    estimates, since the raw samples misrank the ~4096 near-equal maxima of a
    degree-4096 symbol.  Poles on or near the closed disk are rejected at
    construction, so a refined sup within 1 + 1e-9 is a selfmap.
    """
    if s._diag is not None:
        return s._diag
    K = 1 << (max(MIN_GRID, 4 * (s.degree + 1)) - 1).bit_length()
    R, h = SUP_OVERSAMPLE, 2.0 * np.pi / (K * SUP_OVERSAMPLE)
    w = np.empty(K * R + 2)  # w[m + 1] = |phi(e^{i h m})|, wrapped at both ends
    v = w[1:-1].reshape(K, R)
    for k in range(R):
        v[:, k] = np.abs(circle_values(s, K, shift=h * k))
    w[0], w[-1] = w[-2], w[1]
    m = np.flatnonzero((w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:]))
    l, c, r = w[m], w[m + 1], w[m + 2]
    est = c + (l - r) ** 2 / (8.0 * np.maximum(2.0 * c - l - r, np.finfo(float).tiny))
    t = h * m[np.argsort(est)[-SUP_PEAKS:]]
    nn, nd = np.flatnonzero(s.num), np.flatnonzero(s.den)

    def modulus(x):  # |phi(e^{ix})|, summed over the nonzero terms only
        return np.abs((np.exp(1j * np.multiply.outer(x, nn)) @ s.num[nn])
                      / (np.exp(1j * np.multiply.outer(x, nd)) @ s.den[nd]))

    best = _golden_max(modulus, t - h, t + h, 1e-10)
    sup = max(float(v.max()), float(best.max()))
    j = int(np.argmax(v[:, 0]))
    object.__setattr__(s, "_diag", SelfmapDiagnostics(
        boundary_sup=sup, sup_theta=2.0 * np.pi * j / K, is_selfmap=sup <= 1.0 + SELFMAP_TOL,
        grid_size=K, grid_sup=float(v[j, 0])))
    return s._diag


def taylor_close(f: Symbol, g: Symbol, N: int | None = None, tol: float = 1e-10) -> bool:
    """Whether two symbols agree as analytic functions, by Taylor comparison.

    Rational functions of degree <= d are determined by 2d + 1 coefficients,
    so the default N certifies equality up to the tolerance.
    """
    if N is None:
        N = 2 * max(f.degree, g.degree) + 8
    return bool(np.max(np.abs(taylor(f, N) - taylor(g, N))) <= tol)


# ---------------------------------------------------------------------------
# arithmetic used by the parser (rational field operations)


def sym_add(f: Symbol, g: Symbol) -> Symbol:
    num = npp.polyadd(npp.polymul(f.num, g.den), npp.polymul(g.num, f.den))
    return Symbol(num, npp.polymul(f.den, g.den))


def sym_sub(f: Symbol, g: Symbol) -> Symbol:
    num = npp.polysub(npp.polymul(f.num, g.den), npp.polymul(g.num, f.den))
    return Symbol(num, npp.polymul(f.den, g.den))


def sym_mul(f: Symbol, g: Symbol) -> Symbol:
    return Symbol(npp.polymul(f.num, g.num), npp.polymul(f.den, g.den))


def sym_div(f: Symbol, g: Symbol) -> Symbol:
    return Symbol(npp.polymul(f.num, g.den), npp.polymul(f.den, g.num))


def _poly_pow(c: CoeffVec, k: int) -> CoeffVec:
    """c^k for k >= 1 by repeated squaring."""
    if k == 1:
        return c
    half = _poly_pow(c, k // 2)
    sq = npp.polymul(half, half)
    return npp.polymul(sq, c) if k & 1 else sq


def sym_pow(f: Symbol, k: int) -> Symbol:
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
#   factor   := ('+'|'-')* power
#   power    := atom ('^' signed-integer)?
#   atom     := NUMBER | 'i' | 'z' | call | '(' expr ')'
#   call     := 'alpha' '(' expr ')' | 'const' '(' expr ')'
#             | 'blaschke' '(' expr (',' expr)* ')' | 'iter' '(' expr ',' integer ')'
# NUMBER is a float literal with an optional trailing 'i' (imaginary unit);
# arguments of alpha/const/blaschke must evaluate to constants.

_KEYWORDS = {"z", "i", "alpha", "blaschke", "const", "iter"}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks = []
    n = len(text)
    j = 0
    while j < n:
        ch = text[j]
        if ch.isspace():
            j += 1
            continue
        if ch in "+-*/^@(),":
            toks.append(_Token(ch, ch, j))
            j += 1
            continue
        if ch.isdigit() or (ch == "." and j + 1 < n and text[j + 1].isdigit()):
            start = j
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            imag = j < n and text[j] == "i" and not (
                j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_")
            )
            lit = text[start:j]
            try:
                val = float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", start, text)
            if imag:
                j += 1
                toks.append(_Token("number", complex(0.0, val), start))
            else:
                toks.append(_Token("number", complex(val, 0.0), start))
            continue
        if ch.isalpha() or ch == "_":
            start = j
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[start:j]
            if word not in _KEYWORDS:
                raise ParseError(f"unknown identifier {word!r}", start, text)
            toks.append(_Token(word, word, start))
            continue
        raise ParseError(f"unexpected character {ch!r}", j, text)
    toks.append(_Token("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.toks[self.k]

    def next(self) -> _Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r}", t.pos, self.text)
        return t

    def fail(self, msg: str, tok: _Token):
        raise ParseError(msg, tok.pos, self.text)

    def parse(self) -> Symbol:
        s = self.comp()
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.kind!r}", t)
        return s

    def comp(self) -> Symbol:
        s = self.additive()
        while self.peek().kind == "@":
            tok = self.next()
            rhs = self.additive()
            try:
                s = compose(s, rhs)
            except NotSelfmapError as exc:
                raise ParseError(str(exc), tok.pos, self.text) from exc
        return s

    def additive(self) -> Symbol:
        s = self.term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.term()
            s = sym_add(s, rhs) if op == "+" else sym_sub(s, rhs)
        return s

    def term(self) -> Symbol:
        s = self.factor()
        while self.peek().kind in "*/":
            op = self.next().kind
            rhs = self.factor()
            s = sym_mul(s, rhs) if op == "*" else sym_div(s, rhs)
        return s

    def factor(self) -> Symbol:
        sign = 1
        while self.peek().kind in "+-":
            if self.next().kind == "-":
                sign = -sign
        s = self.power()
        return sym_neg(s) if sign < 0 else s

    def power(self) -> Symbol:
        s = self.atom()
        if self.peek().kind == "^":
            self.next()
            s = sym_pow(s, self.signed_int())
        return s

    def signed_int(self) -> int:
        sign = 1
        while self.peek().kind in "+-":
            if self.next().kind == "-":
                sign = -sign
        t = self.expect("number")
        val = t.value
        if val.imag != 0 or val.real != int(val.real):
            self.fail("exponent must be an integer", t)
        return sign * int(val.real)

    def const_arg(self) -> complex:
        t = self.peek()
        s = self.comp()
        if not s.is_constant:
            self.fail("argument must be a constant", t)
        return complex(s.num[0])

    def atom(self) -> Symbol:
        t = self.next()
        if t.kind == "number":
            return constant(t.value)
        if t.kind == "i":
            return constant(1j)
        if t.kind == "z":
            return identity()
        if t.kind == "(":
            s = self.comp()
            self.expect(")")
            return s
        if t.kind == "alpha":
            self.expect("(")
            p = self.const_arg()
            self.expect(")")
            try:
                return alpha(p)
            except UnitDiskPoleError as exc:
                raise ParseError(str(exc), t.pos, self.text) from exc
        if t.kind == "const":
            self.expect("(")
            p = self.const_arg()
            self.expect(")")
            return constant(p)
        if t.kind == "blaschke":
            self.expect("(")
            pts = [self.const_arg()]
            while self.peek().kind == ",":
                self.next()
                pts.append(self.const_arg())
            self.expect(")")
            try:
                return blaschke(pts)
            except UnitDiskPoleError as exc:
                raise ParseError(str(exc), t.pos, self.text) from exc
        if t.kind == "iter":
            self.expect("(")
            s = self.comp()
            self.expect(",")
            n = self.signed_int()
            self.expect(")")
            if n < 1:
                self.fail("iteration count must be >= 1", t)
            return iterate(s, n)
        self.fail(f"unexpected {t.kind!r}", t)


def parse_symbol(text: str) -> Symbol:
    """Parse a symbol from the DSL; see the grammar in the module source."""
    return _Parser(text).parse()


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
    if not terms:
        return "0.0"
    return " + ".join(terms)


def format_symbol(s: Symbol) -> str:
    """DSL text whose parse reproduces the symbol's coefficients exactly."""
    if s.is_polynomial:
        return _fmt_poly(s.num)
    return f"({_fmt_poly(s.num)})/({_fmt_poly(s.den)})"
