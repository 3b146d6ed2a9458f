"""Every exact norm/distance/numerical-range formula as a pure function; the
single source of truth the verification layers compare against.

Conventions: points p live in the open unit disk; scalars lambda, mu for the
rotation-distance formula live in the closed disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import PreconditionError, UnitDiskPoleError
from .hardy import h2_inner, h2_norm, inner_multiple, is_inner, kernel_distance, powers
from .symbolic import (Symbol, alpha, compose, cross_products, fixes_origin, ratio, require_selfmap,
                       taylor_close)

UNIMODULAR_TOL = 1e-12     # |lambda| within this of 1 counts as unimodular
ANGLE_TOL = 1e-12          # rational-angle recognition tolerance
DENOM_CAP = 1_000_000      # continued-fraction denominator cap


def _require_disk(p: complex, name: str = "p") -> complex:
    p = complex(p)
    if not abs(p) < 1:  # NaN too
        raise PreconditionError(f"{name} must lie in the open unit disk, got |{name}|={abs(p):.6g}")
    return p


def _automorphism(p: complex) -> Symbol | None:
    """alpha(p), or None when construction rejects its pole: then no symbol is alpha(p)."""
    try:
        return alpha(p)
    except UnitDiskPoleError:
        return None


def norm_bounds(phi0: complex) -> tuple[float, float]:
    """Lower and upper bound for the composition-operator norm in terms of
    the symbol's value at the origin; both reduce to 1 when phi0 = 0."""
    a = abs(_require_disk(phi0, "phi0"))
    return 1.0 / math.sqrt(1.0 - a * a), math.sqrt((1.0 + a) / (1.0 - a))


def inner_symbol_norm(phi0: complex) -> float:
    """Norm (and essential norm) of a composition operator with inner symbol:
    the upper bound of norm_bounds, attained exactly for inner symbols."""
    return norm_bounds(phi0)[1]


def const_distance(p1: complex, p2: complex) -> float:
    """||C_p1 - C_p2|| for constant symbols (= distance of reproducing kernels)."""
    return kernel_distance(p1, p2)


def inner_const_distance(p: complex, phi0: complex = 0.0) -> float:
    """||C_phi - C_p|| for inner phi, phi(0) = phi0, and constant p.  With
    P = |p|^2 and b = |phi0|: sqrt((1 - b^2) P / ((1 - P)(P - b^2))), attained,
    for b < P, and ||C_phi|| (not attained) from b = P on, so p = 0 gives ||C_phi||."""
    P, b = abs(_require_disk(p)) ** 2, abs(_require_disk(phi0, "phi0"))
    if b < P:
        return math.sqrt((1.0 - b * b) * P / (P - b * b)) / math.sqrt(1.0 - P)
    return inner_symbol_norm(phi0)


def inner_alpha_distance(p: complex) -> float:
    """||C_(alpha_p o phi) +/- C_phi|| for inner phi fixing the origin."""
    return 2.0 / math.sqrt(1.0 - abs(_require_disk(p)) ** 2)


# ---------------------------------------------------------------------------
# rotation distance sup_n |lambda^n - mu^n|


@dataclass(frozen=True)
class RotationDistance:
    value: float
    case: str            # equal / odd_root / even_root / not_root / numeric
    order: int | None    # root-of-unity order when recognized


def rotation_distance_bruteforce(lam: complex, mu: complex, depth: int = 1_000_000) -> float:
    """sup_n |lambda^n - mu^n| over n <= depth, by direct evaluation.

    The powers are scanned in chunks of 64, doubling up to 32768, and the
    scan stops by one of two rules.  Agreement: at the first n with
    |lambda^n - mu^n| <= 8 n eps, since from there |lambda^(n+m) - mu^(n+m)|
    = |lambda|^n |lambda^m - mu^m| to rounding, so the sup is already found.
    Tail: at a chunk end n0 with |lambda|^n0 + |mu|^n0 <= the best value
    found, since for scalars in the closed disk no later |lambda^m - mu^m|
    exceeds that bound; the value is then the max over every n <= depth.
    """
    lam, mu = complex(lam), complex(mu)
    best = 0.0
    chunk = 64
    n0 = 1
    while n0 <= depth:
        # powers from the absolute exponent: x^n = |x|^n e^{i n arg x}
        n = np.arange(n0, min(n0 + chunk, depth + 1))
        vals = np.abs(abs(lam) ** n * np.exp(1j * cmath.phase(lam) * n)
                      - abs(mu) ** n * np.exp(1j * cmath.phase(mu) * n))
        agree = np.flatnonzero(vals <= 8.0 * np.finfo(float).eps * n)  # lam^n = mu^n
        best = max(best, float(vals[:agree[0] + 1 if agree.size else n.size].max()))
        n0 += n.size
        if agree.size or abs(lam) ** n0 + abs(mu) ** n0 <= best:
            return best
        chunk = min(2 * chunk, 1 << 15)
    return best


def rotation_distance(lam: complex, mu: complex) -> RotationDistance:
    """sup_n |lambda^n - mu^n| for scalars in the closed disk.

    For unimodular scalars the ratio lambda/mu is tested for being a root of
    unity by continued-fraction recognition of its angle: even order or no
    root of unity gives 2, odd order k gives the k-gon chord.  Otherwise the
    sup is taken by rotation_distance_bruteforce at its default depth.  When
    one scalar u is unimodular and the other, v, is not, it scans the pair
    (1, v/u): |u| = 1 gives |lambda^n - mu^n| = |1 - (v/u)^n|, and a
    modulus of exactly 1 keeps the powers from drifting off the circle.
    """
    lam, mu = complex(lam), complex(mu)
    if not (abs(lam) <= 1 + UNIMODULAR_TOL and abs(mu) <= 1 + UNIMODULAR_TOL):  # NaN too
        raise PreconditionError("scalars must lie in the closed unit disk")
    if abs(lam - mu) <= UNIMODULAR_TOL:
        return RotationDistance(0.0, "equal", None)
    lam_on, mu_on = (abs(abs(x) - 1.0) <= UNIMODULAR_TOL for x in (lam, mu))
    if lam_on != mu_on:  # one scalar u on the circle: scan (1, v/u)
        lam, mu = 1.0, (mu / lam if lam_on else lam / mu)
    if not (lam_on and mu_on):
        return RotationDistance(rotation_distance_bruteforce(lam, mu), "numeric", None)
    t = (cmath.phase(lam / mu) / (2.0 * math.pi)) % 1.0
    frac = Fraction(t).limit_denominator(DENOM_CAP)
    if abs(t - float(frac)) <= ANGLE_TOL:
        k = frac.denominator
        if k == 1:
            # lam != mu within ANGLE_TOL turns (~6.3e-12 rad) of each other:
            # the angle tolerance counts them as equal
            return RotationDistance(0.0, "equal", 1)
        if k % 2 == 0:
            return RotationDistance(2.0, "even_root", k)
        # chord from 1 to the vertex of the regular k-gon nearest -1
        return RotationDistance(abs(1.0 - cmath.exp(1j * math.pi * (k - 1) / k)), "odd_root", k)
    return RotationDistance(2.0, "not_root", None)


# ---------------------------------------------------------------------------
# elliptical numerical ranges


@dataclass(frozen=True)
class EllipseDisk:
    """An elliptical disk given by its foci and axis lengths.

    degenerate means the disk is reduced to its focal segment; closed records
    whether the boundary belongs to the set being described.
    """

    focus_a: complex
    focus_b: complex
    major_len: float
    minor_len: float
    degenerate: bool
    closed: bool

    def __post_init__(self):
        dist = abs(self.focus_a - self.focus_b)
        if self.major_len < dist - 1e-12:
            raise ValueError("major axis shorter than the focal distance")
        # squared form avoids cancellation for near-degenerate disks
        if abs(self.minor_len**2 + dist**2 - self.major_len**2) > 1e-10 * max(1.0, self.major_len**2):
            raise ValueError("minor axis inconsistent with foci and major axis")
        if self.degenerate != (self.minor_len == 0.0):
            raise ValueError("degenerate flag must match a vanishing minor axis")

    @property
    def center(self) -> complex:
        return (self.focus_a + self.focus_b) / 2.0

    @property
    def axis_angle(self) -> float:
        d = self.focus_b - self.focus_a
        return cmath.phase(d) if d != 0 else 0.0

    @property
    def semi_major(self) -> float:
        return self.major_len / 2.0

    @property
    def semi_minor(self) -> float:
        return self.minor_len / 2.0

    def support(self, thetas) -> np.ndarray:
        """Support function h(theta) = max over the closed disk of Re(e^{-i theta} w)."""
        th = np.asarray(thetas, dtype=float)
        c, psi = self.center, self.axis_angle
        a, b = self.semi_major, self.semi_minor
        phi = th - psi
        radial = np.sqrt((a * np.cos(phi)) ** 2 + (b * np.sin(phi)) ** 2)
        return (np.conj(c) * np.exp(1j * th)).real + radial

    def focal_margin(self, z) -> np.ndarray:
        """major_len - |z - focus_a| - |z - focus_b|: positive exactly inside
        the open disk, zero on its boundary."""
        z = np.asarray(z, dtype=complex)
        return self.major_len - np.abs(z - self.focus_a) - np.abs(z - self.focus_b)


def const_ellipse(p: complex) -> EllipseDisk:
    """Numerical range of the point-evaluation operator C_p: a closed
    elliptical disk with foci 0 and 1, degenerate exactly when p = 0."""
    p = _require_disk(p)
    major = 1.0 / math.sqrt(1.0 - abs(p) ** 2)
    minor = math.sqrt(max(major**2 - 1.0, 0.0))
    return EllipseDisk(0.0 + 0.0j, 1.0 + 0.0j, major, minor,
                       degenerate=(minor == 0.0), closed=True)


def alpha_ellipse(p: complex) -> EllipseDisk:
    """Numerical range of the automorphic involution C_(alpha_p): foci +-1,
    open for p != 0, the segment [-1, 1] for p = 0."""
    p = _require_disk(p)
    major = 2.0 / math.sqrt(1.0 - abs(p) ** 2)
    minor = 2.0 * abs(p) / math.sqrt(1.0 - abs(p) ** 2)
    degenerate = minor == 0.0
    return EllipseDisk(-1.0 + 0.0j, 1.0 + 0.0j, major, minor,
                       degenerate=degenerate, closed=degenerate)


# ---------------------------------------------------------------------------
# target recognition for schedules and the CLI


@dataclass(frozen=True)
class DistanceTarget:
    value: float
    label: str


def recognize_distance_target(a: Symbol, b: Symbol) -> DistanceTarget | None:
    """Closed-form value of ||C_a - C_b|| when the pair matches a formula.

    Patterns, in order: identical symbols; two constants; common inner factor
    fixing 0 with scalar multipliers (rotation sup); an inner symbol against any
    constant (any phi(0)) or against alpha_p composed with it, in either order;
    a symbol fixing 0 against the constant 0.
    """
    require_selfmap(a)
    require_selfmap(b)
    if taylor_close(a, b):
        return DistanceTarget(0.0, "identical")
    if a.is_constant and b.is_constant:
        return DistanceTarget(const_distance(a.value_at_zero(), b.value_at_zero()), "const_const")
    # scalar multiples of one inner function fixing the origin
    c = ratio(*cross_products(a, b))
    if c is not None and not b.is_constant and fixes_origin(b):  # ratio is loose for b near 0
        ok, mu = inner_multiple(b)
        if ok:
            lam = c * mu
            if abs(lam) <= 1 + UNIMODULAR_TOL:
                return DistanceTarget(rotation_distance(lam, mu).value, "rotation")
    # phi inner, against any constant or against alpha_p o phi
    for outer, inner_sym in ((a, b), (b, a)):
        if not is_inner(inner_sym).is_inner:
            continue
        if outer.is_constant:
            phi0 = inner_sym.value_at_zero()
            return DistanceTarget(inner_const_distance(outer.value_at_zero(), phi0), "inner_const")
        ref = outer if fixes_origin(inner_sym) else inner_sym
        p = ref.value_at_zero()
        auto = None if fixes_origin(ref) else _automorphism(p)
        if auto is not None and taylor_close(compose(auto, inner_sym), outer):
            return DistanceTarget(inner_alpha_distance(p), "automorphism_pair")
    # phi fixing 0 vs the constant 0: (C_phi - C_0) f = (f - f(0)) o phi, so the
    # distance is the norm of C_phi restricted to zH^2
    for f, g in ((a, b), (b, a)):
        if g.is_constant and fixes_origin(g) and fixes_origin(f):
            value = recognize_restricted_target(f)
            return None if value is None else DistanceTarget(value, "restricted")
    return None


def _power_orthogonal_certificate(s: Symbol) -> bool:
    """Exact check that <phi, phi^n> = 0 for all n >= 2 (polynomial phi
    vanishing at 0: only finitely many n can overlap in degree)."""
    if not s.is_polynomial or not fixes_origin(s):
        return False
    num = s.num
    nonzero = np.flatnonzero(np.abs(num[1:]) > 1e-13) + 1  # fixes_origin allows a tiny num[0]
    if nonzero.size == 0:
        return False
    # the overlap reads only the first num.size coefficients of each power
    higher = islice(powers(num, (num.size - 1) // int(nonzero[0]), num.size), 1, None)
    return not any(abs(h2_inner(num, p)) > 1e-14 for p in higher)


def recognize_restricted_target(s: Symbol) -> float | None:
    """Closed-form value of ||C_s restricted to zH^2|| when known.

    Scalar multiples of inner functions fixing 0 give |lambda|; polynomials
    fixing 0 whose powers are orthogonal to the symbol give the coefficient
    norm ||s||_2 exactly.
    """
    if not fixes_origin(s):
        return None
    ok, mag = inner_multiple(s)
    if ok:
        return mag
    return h2_norm(s.num) if _power_orthogonal_certificate(s) else None


def recognize_opnorm_target(s: Symbol) -> float | None:
    """Closed-form value of ||C_s|| when attained: constants attain the lower
    bound, symbols fixing 0 have norm 1, inner symbols attain the upper bound."""
    require_selfmap(s)
    if s.is_constant:
        return norm_bounds(s.value_at_zero())[0]
    if fixes_origin(s):
        return 1.0
    if is_inner(s).is_inner:
        return inner_symbol_norm(s.value_at_zero())
    return None


def recognize_ellipse(s: Symbol) -> EllipseDisk | None:
    """Known numerical-range ellipse for constant and automorphic symbols."""
    require_selfmap(s)
    p = s.value_at_zero()
    if s.is_constant:
        return const_ellipse(p)
    auto = _automorphism(p)
    return alpha_ellipse(p) if auto is not None and taylor_close(s, auto) else None
