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

from .errors import PreconditionError
from .hardy import h2_inner, h2_norm, inner_multiple, is_inner, kernel_distance, powers
from .symbolic import Symbol, alpha, compose, taylor, taylor_close, trim

UNIMODULAR_TOL = 1e-12     # |lambda| within this of 1 counts as unimodular
ANGLE_TOL = 1e-12          # rational-angle recognition tolerance
DENOM_CAP = 1_000_000      # continued-fraction denominator cap


def _require_disk(p: complex, name: str = "p") -> complex:
    p = complex(p)
    if abs(p) >= 1:
        raise PreconditionError(f"{name} must lie in the open unit disk, got |{name}|={abs(p):.6g}")
    return p


def norm_bounds(phi0: complex) -> tuple[float, float]:
    """Lower and upper bound for the composition-operator norm in terms of
    the symbol's value at the origin; both reduce to 1 when phi0 = 0."""
    phi0 = _require_disk(phi0, "phi0")
    a = abs(phi0)
    return 1.0 / math.sqrt(1.0 - a * a), math.sqrt((1.0 + a) / (1.0 - a))


def inner_symbol_norm(phi0: complex) -> float:
    """Norm (and essential norm) of a composition operator with inner symbol:
    the upper bound of norm_bounds, attained exactly for inner symbols."""
    return norm_bounds(phi0)[1]


def const_distance(p1: complex, p2: complex) -> float:
    """||C_p1 - C_p2|| for constant symbols (= distance of reproducing kernels)."""
    return kernel_distance(p1, p2)


def inner_const_distance(p: complex) -> float:
    """||C_phi - C_p|| for inner phi fixing the origin and constant p."""
    p = _require_disk(p)
    return 1.0 / math.sqrt(1.0 - abs(p) ** 2)


def inner_alpha_distance(p: complex) -> float:
    """||C_(alpha_p o phi) +/- C_phi|| for inner phi fixing the origin."""
    p = _require_disk(p)
    return 2.0 / math.sqrt(1.0 - abs(p) ** 2)


# ---------------------------------------------------------------------------
# rotation distance sup_n |lambda^n - mu^n|


@dataclass(frozen=True)
class RotationDistance:
    value: float
    case: str            # equal / odd_root / even_root / not_root / numeric
    order: int | None    # root-of-unity order when recognized


def rotation_distance_bruteforce(lam: complex, mu: complex, depth: int = 1_000_000) -> float:
    """sup_n |lambda^n - mu^n| over n <= depth, by direct evaluation.

    For strictly contractive scalars the scan stops once the geometric bound
    2 max(|lambda|,|mu|)^n falls below the best value found (exact decision).
    """
    lam, mu = complex(lam), complex(mu)
    best = 0.0
    r = max(abs(lam), abs(mu))
    chunk = 1 << 15
    n0 = 1
    while n0 <= depth:
        # powers from the absolute exponent: x^n = |x|^n e^{i n arg x}
        n = np.arange(n0, min(n0 + chunk, depth + 1))
        vals = np.abs(abs(lam) ** n * np.exp(1j * cmath.phase(lam) * n)
                      - abs(mu) ** n * np.exp(1j * cmath.phase(mu) * n))
        best = max(best, float(vals.max()))
        if best >= 2.0 - 1e-15:
            return best
        n0 += n.size
        if r < 1.0 and 2.0 * r**n0 < best:
            return best
    return best


def _odd_root_value(k: int) -> float:
    # Chord from 1 to the vertex of the regular k-gon nearest -1.
    return abs(1.0 - cmath.exp(1j * math.pi * (k - 1) / k))


def rotation_distance(lam: complex, mu: complex, depth: int = 1_000_000) -> RotationDistance:
    """sup_n |lambda^n - mu^n| for scalars in the closed disk.

    For unimodular scalars the ratio lambda/mu is tested for being a root of
    unity by continued-fraction recognition of its angle: even order or no
    root of unity gives 2, odd order k gives the k-gon chord; otherwise the
    sup is taken numerically over n <= depth.
    """
    lam, mu = complex(lam), complex(mu)
    if abs(lam) > 1 + UNIMODULAR_TOL or abs(mu) > 1 + UNIMODULAR_TOL:
        raise PreconditionError("scalars must lie in the closed unit disk")
    if abs(lam - mu) <= UNIMODULAR_TOL:
        return RotationDistance(0.0, "equal", None)
    unimodular = abs(abs(lam) - 1.0) <= UNIMODULAR_TOL and abs(abs(mu) - 1.0) <= UNIMODULAR_TOL
    if not unimodular:
        return RotationDistance(rotation_distance_bruteforce(lam, mu, depth), "numeric", None)
    t = (cmath.phase(lam / mu) / (2.0 * math.pi)) % 1.0
    frac = Fraction(t).limit_denominator(DENOM_CAP)
    if abs(t - float(frac)) <= ANGLE_TOL:
        k = frac.denominator
        if k == 1:
            # angle 0 with lam != mu cannot happen for unimodular scalars
            return RotationDistance(0.0, "equal", 1)
        if k % 2 == 0:
            return RotationDistance(2.0, "even_root", k)
        return RotationDistance(_odd_root_value(k), "odd_root", k)
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

    def contact_points(self, thetas) -> np.ndarray:
        """Boundary points attaining the support in each direction."""
        th = np.asarray(thetas, dtype=float)
        c, psi = self.center, self.axis_angle
        a, b = self.semi_major, self.semi_minor
        phi = th - psi
        if b == 0.0:
            return c + cmath.exp(1j * psi) * a * np.sign(np.cos(phi))
        radial = np.sqrt((a * np.cos(phi)) ** 2 + (b * np.sin(phi)) ** 2)
        return c + np.exp(1j * psi) * (a**2 * np.cos(phi) + 1j * b**2 * np.sin(phi)) / radial

    def boundary_points(self, ts) -> np.ndarray:
        """Parametric boundary c + e^{i psi} (A cos t + i B sin t)."""
        t = np.asarray(ts, dtype=float)
        return self.center + cmath.exp(1j * self.axis_angle) * (
            self.semi_major * np.cos(t) + 1j * self.semi_minor * np.sin(t)
        )


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
    detail: str


def _first_nonzero(c: np.ndarray, tol: float = 1e-13) -> int | None:
    idx = np.nonzero(np.abs(c) > tol)[0]
    return int(idx[0]) if idx.size else None


def _proportional(a: Symbol, b: Symbol, N: int | None = None) -> complex | None:
    """Scalar c with a = c*b as analytic functions, or None."""
    if N is None:
        N = 2 * max(a.degree, b.degree) + 8
    ta, tb = taylor(a, N), taylor(b, N)
    j = _first_nonzero(tb)
    if j is None:
        return None
    c = ta[j] / tb[j]
    if np.max(np.abs(ta - c * tb)) <= 1e-10 * max(1.0, abs(c)):
        return complex(c)
    return None


def recognize_distance_target(a: Symbol, b: Symbol) -> DistanceTarget | None:
    """Closed-form value of ||C_a - C_b|| when the pair matches a formula.

    Patterns, in order: identical symbols; two constants; common inner factor
    fixing 0 with scalar multipliers (rotation sup); b inner with
    a = alpha_p o b (and the symmetric case); inner symbol against a constant.
    """
    if taylor_close(a, b):
        return DistanceTarget(0.0, "identical", "a = b")
    if a.is_constant and b.is_constant:
        p1, p2 = a.value_at_zero(), b.value_at_zero()
        return DistanceTarget(const_distance(p1, p2), "const_const",
                              f"constants {p1:.12g}, {p2:.12g}")
    # scalar multiples of one inner function fixing the origin
    c = _proportional(a, b)
    if c is not None and not b.is_constant and abs(b.value_at_zero()) <= 1e-13:
        ok, mag = inner_multiple(b)
        if ok and mag > 0:
            mu = mag
            lam = complex(c) * mu
            if abs(lam) <= 1 + UNIMODULAR_TOL:
                rot = rotation_distance(lam, mu)
                return DistanceTarget(rot.value, "rotation",
                                      f"lambda={lam:.12g}, mu={mu:.12g}, case={rot.case}")
    # alpha_p o phi against phi, phi inner
    for outer, inner_sym in ((a, b), (b, a)):
        if inner_sym.is_constant:
            continue
        if not is_inner(inner_sym).is_inner:
            continue
        q0 = inner_sym.value_at_zero()
        candidates = [outer.value_at_zero()] if abs(q0) <= 1e-13 else [q0]
        for p in candidates:
            if abs(p) >= 1 or abs(p) <= 1e-13:
                continue
            if taylor_close(compose(alpha(p), inner_sym), outer):
                return DistanceTarget(inner_alpha_distance(p), "automorphism_pair",
                                      f"alpha({p:.12g}) o inner")
    # inner symbol vs constant
    for f, g in ((a, b), (b, a)):
        if g.is_constant and not f.is_constant and is_inner(f).is_inner:
            p = g.value_at_zero()
            if abs(f.value_at_zero()) <= 1e-13:
                return DistanceTarget(inner_const_distance(p), "inner_const",
                                      f"inner fixing 0 vs constant {p:.12g}")
            if abs(p) <= 1e-13:
                # ||C_phi - C_0|| for inner phi has the closed form of ||C_phi||
                return DistanceTarget(inner_symbol_norm(f.value_at_zero()), "inner_c0",
                                      "inner vs constant 0")
    return None


def _power_orthogonal_certificate(s: Symbol) -> bool:
    """Exact check that <phi, phi^n> = 0 for all n >= 2 (polynomial phi
    vanishing at 0: only finitely many n can overlap in degree)."""
    if not s.is_polynomial or abs(s.value_at_zero()) > 1e-14:
        return False
    num = trim(s.num)
    lowest = _first_nonzero(num)
    if lowest is None or lowest == 0:
        return False
    # the overlap reads only the first num.size coefficients of each power
    higher = islice(powers(num, (num.size - 1) // lowest, num.size), 1, None)
    return not any(abs(h2_inner(num, p)) > 1e-14 for p in higher)


def recognize_restricted_target(s: Symbol) -> float | None:
    """Closed-form value of ||C_s restricted to zH^2|| when known.

    Scalar multiples of inner functions fixing 0 give |lambda|; polynomials
    fixing 0 whose powers are orthogonal to the symbol give the coefficient
    norm ||s||_2 exactly.
    """
    if abs(s.value_at_zero()) > 1e-13:
        return None
    ok, mag = inner_multiple(s)
    if ok:
        return mag
    if _power_orthogonal_certificate(s):
        return h2_norm(trim(s.num))
    return None


def recognize_opnorm_target(s: Symbol) -> float | None:
    """Closed-form value of ||C_s|| when attained: constants attain the lower
    bound, symbols fixing 0 have norm 1, inner symbols attain the upper bound."""
    if s.is_constant:
        return norm_bounds(s.value_at_zero())[0]
    if abs(s.value_at_zero()) <= 1e-13:
        return 1.0
    if is_inner(s).is_inner:
        return inner_symbol_norm(s.value_at_zero())
    return None


def recognize_ellipse(s: Symbol) -> EllipseDisk | None:
    """Known numerical-range ellipse for constant and automorphic symbols."""
    if s.is_constant:
        return const_ellipse(s.value_at_zero())
    p = s.value_at_zero()
    if abs(p) < 1 and taylor_close(s, alpha(p)):
        return alpha_ellipse(p)
    return None
