"""Finite compressions of composition and weighted composition operators in
the monomial basis, largest-singular-value solves, norm distances, and
convergence schedules against closed-form targets.

Compression values are lower bounds of the corresponding operator norms and
are nondecreasing in the dimension (nested orthogonal projections); the
schedule runner certifies both properties on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import closedform
from .errors import PreconditionError, SolverInternalError
from .symbolic import (Symbol, constant, require_origin_fixed, require_selfmap, rotation_real,
                       taylor, taylor_close, unit_powers)

MONOTONE_TOL = 1e-9            # certificate slack for nondecreasing values
TARGET_TOL = 1e-9              # certificate slack for value <= target


@dataclass(frozen=True)
class OpMatrix:
    """Dense compression of an operator against monomials, stored as one
    matrix with optional unit phases: entries = matrix * col * row[:, None],
    that is D_row matrix D_col.  The matrix is float64 for real and rotated
    real symbols (comp_matrix), complex128 otherwise; row and col are None
    when there are no phases, else both 1-D of length dim.
    """

    matrix: np.ndarray
    row: np.ndarray | None = None
    col: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float if np.isrealobj(self.matrix) else complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("OpMatrix matrix must be a square 2-D array")
        shapes = [np.shape(p) for p in (self.row, self.col) if p is not None]
        if shapes not in ([], [m.shape[:1]] * 2):  # no phases, or both of length dim
            raise ValueError("OpMatrix phases must be none, or row and col both 1-D of length dim")
        # read-only views: no copy, and the caller's own arrays keep their flags
        for name, a in (("matrix", m), ("row", self.row), ("col", self.col)):
            if a is not None:
                a = np.asarray(a).view()
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    @property
    def entries(self) -> np.ndarray:
        """The stored matrix without phases, else formed on every read."""
        if self.row is None:
            return self.matrix
        e = self.matrix * self.col
        e *= self.row[:, None]
        e.flags.writeable = False
        return e

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def leading(self, N: int) -> "OpMatrix":
        """The leading N x N block, phases included: with nested bases, exactly
        the compression at dimension N, for 2 <= N <= dim."""
        if not 2 <= N <= self.dim:
            raise PreconditionError(f"compression dimension must lie in [2, {self.dim}], got {N}")
        phases = () if self.row is None else (self.row[:N], self.col[:N])
        return OpMatrix(self.matrix[:N, :N], *phases)


def as_opmatrix(A) -> OpMatrix:
    """A itself, or a square array as an OpMatrix with no phases."""
    return A if isinstance(A, OpMatrix) else OpMatrix(A)


def _real_taylor(s: Symbol, N: int) -> np.ndarray:
    """taylor(s, N), as float64 when every coefficient is exactly real."""
    t = taylor(s, N)
    return t if t.imag.any() else t.real.copy()


def _powers(first: np.ndarray, step: np.ndarray, length: int):
    """Yields first, first*step, first*step^2, ... under truncated convolution
    by np.convolve, float64 when first and step are real, up to the first zero
    column.  The step drops its coefficients below eps^2 times its largest and
    its trailing zeros; the step z is exact too, each entry being x*1 + y*0.
    A longer build's leading block is bitwise the shorter build unless their
    steps trim to different lengths (a lacunary step with terms past the
    shorter length).  Entries below eps^2 times the largest of the first
    column (so below eps^2 ||M||) become 0 as formed, keeping out subnormals,
    on which LAPACK runs several times slower."""
    tiny = np.finfo(float).eps ** 2
    col = np.zeros(length, dtype=np.result_type(first, step))
    col[:min(first.size, length)] = first[:length]
    floor = tiny * np.abs(col).max()
    step = np.where(np.abs(step) < tiny * np.abs(step).max(), 0, step)
    step = step[:np.flatnonzero(step).max(initial=0) + 1]
    while True:
        col[np.abs(col) < floor] = 0
        if not col.any():
            return
        yield col
        col = np.convolve(col, step)[:length]


def _build(w: Symbol, s: Symbol, N: int, shift: int):
    """(first, step, phases) of the compression of T_{w,s} f = w * (f o s)
    over the degrees shift..N+shift-1: column k holds taylor(w * s^k), the
    power columns of first = taylor(w) by step = taylor(s).  When s(z) =
    lam psi(mu z) with psi real (rotation_real) and w(z) = lam_w psi_w(mu z)
    with the same mu, the columns are the real ones of psi_w psi^k, and
    phases is (row, col) with row = mu^d over the row degrees d and col =
    lam_w lam^k; else phases is ()."""
    if N < 2:
        raise PreconditionError("compression dimension must be >= 2")
    require_selfmap(s)
    rot = rotation_real(s)  # psi is a selfmap too: |psi(w)| = |s(conj(mu) w)|
    rot_w = None if rot is None else rotation_real(w, rot[1])
    phases = ()
    if rot_w is not None:
        (lam, mu, s), (lam_w, _, w) = rot, rot_w
        phases = unit_powers(mu, N + shift)[shift:], lam_w * unit_powers(lam, N)
    return _real_taylor(w, N + shift), _real_taylor(s, N + shift), phases


def _compression(w: Symbol, s: Symbol, N: int, shift: int) -> OpMatrix:
    """The compression of _build with its phases, stored column-major, so
    each column write is contiguous and the zero columns after the build
    ends are never touched."""
    first, step, phases = _build(w, s, N, shift)
    out = np.zeros((N + shift, N), dtype=np.result_type(first, step), order="F")
    for k, col in zip(range(N), _powers(first, step, N + shift)):
        out[:, k] = col
    return OpMatrix(out[shift:], *phases)


def _difference(a: Symbol, b: Symbol, N: int) -> OpMatrix:
    """comp_matrix(a, N).entries - comp_matrix(b, N).entries in two passes
    over one column-major array, the only N x N one: a's columns are written,
    then b's are subtracted as they are formed, phases applied as
    OpMatrix.entries applies them, also to the zero columns after a phased
    build ends (zeros of either sign) up to the other build's end.  Bitwise
    the same up to the column where both builds have ended, 0 after it."""
    (first, step, phases), (first_b, step_b, phases_b) = (
        _build(constant(1.0), s, N, 0) for s in (a, b))
    dtype = np.result_type(first, step, *phases, first_b, step_b, *phases_b)
    out = np.zeros((N, N), dtype=dtype, order="F")
    for end, col in zip(range(1, N + 1), _powers(first, step, N)):
        out[:, end - 1] = col * phases[1][end - 1] * phases[0] if phases else col
    zero = np.zeros(N)
    for k, col in zip(range(N), chain(_powers(first_b, step_b, N),
                                      repeat(zero, end if phases_b else 0))):
        if k >= end and phases:
            out[:, k] = zero * phases[1][k] * phases[0]
        out[:, k] -= col * phases_b[1][k] * phases_b[0] if phases_b else col
    return OpMatrix(out)


def comp_matrix(s: Symbol, N: int, basis: str = "full") -> OpMatrix:
    """Compression of f -> f o s: the weighted compression with w = 1 (full),
    or with w = s less row 0 (h20).  full: column k holds the first N Taylor
    coefficients of s^k (column 0 is e_0, the constant function); h20: column
    k (k = 1..N) holds coefficients 1..N of s^k."""
    if basis not in ("full", "h20"):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "h20":
        return _compression(s, s, N, 1)
    return _compression(constant(1.0), s, N, 0)


def const_matrix(p: complex, N: int) -> OpMatrix:
    """Compression of the point-evaluation operator f -> f(p) * 1."""
    return comp_matrix(constant(p), N)


def weighted_matrix(w: Symbol, s: Symbol, N: int) -> OpMatrix:
    """Compression of f -> w * (f o s): column k = taylor(w * s^k, N), for
    N >= 2.  A real matrix with phases (see _compression) when s(z) =
    lam psi(mu z) and w(z) = lam_w psi_w(mu z) with the same mu."""
    return _compression(w, s, N, 0)


# ---------------------------------------------------------------------------
# largest singular value


def _gram(A) -> np.ndarray:
    """The Gram matrix M^H M of a compression on its column support M_K, up
    to the last nonzero column K: Gram([M_K 0]) is diag(Gram(M_K), 0), with
    the same top eigenvalue, and a contraction's flushed build has K set by
    sup|phi|, not by N.  An OpMatrix gives its stored matrix, since its phases
    keep the singular values.  A real Gram is numpy's syrk product, exactly
    symmetric, so its transpose is the same matrix in the column-major order
    LAPACK reads, with no transposing copy; a complex one is not exactly
    Hermitian and stays as formed."""
    M = as_opmatrix(A).matrix
    M = M[:, :np.flatnonzero(M.any(axis=0)).max(initial=0) + 1]
    G = M.conj().T @ M
    return G.T if np.isrealobj(G) else G


def _top_sv(G: np.ndarray) -> float:
    """The square root of the top eigenvalue of a Gram matrix, by one dense
    LAPACK eigensolve."""
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def op_norm(A) -> float:
    """Largest singular value of a compression: the square root of the top
    eigenvalue of its Gram matrix (_gram), by one dense LAPACK eigensolve, for
    real and complex M alike.  Callers that own the build pass it to _gram
    and drop it before _top_sv, whose input LAPACK copies.

    Compressions of slow-gap operators (automorphisms, non-inner symbols
    touching the circle) have clustered top singular values, where power
    iteration needs thousands of steps; a dense solve costs the same at any gap.
    """
    return _top_sv(_gram(A))


# ---------------------------------------------------------------------------
# distances and restrictions


def distance(a: Symbol, b: Symbol, N: int) -> float:
    """Compression of ||C_a - C_b||; a monotone-in-N lower bound of the norm."""
    return _top_sv(_gram(_difference(a, b, N)))


def _restriction(s: Symbol, N: int) -> OpMatrix:
    """The h20 compression, which is that of C_s restricted to zH^2 only for
    s fixing 0: otherwise it loses row 0, which holds s(0)^k."""
    require_selfmap(s)
    require_origin_fixed(s, "the restriction to zH^2")
    return comp_matrix(s, N, "h20")


def restricted_norm(s: Symbol, N: int) -> float:
    """Compression of the norm of C_s restricted to zH^2, for s fixing 0; also
    that of ||C_s - C_0||, whose full-basis matrix adds a zero row and column."""
    return _top_sv(_gram(_restriction(s, N)))


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-dimension values of one extremal task, with an optional target."""

    dims: tuple[int, ...]
    values: tuple[float, ...]
    target: float | None = None
    target_label: str | None = None
    gaps: tuple[float, ...] | None = None


_TASKS = ("distance", "restricted", "weighted", "opnorm")


def _task_matrix(task: str, params: dict, N: int) -> OpMatrix:
    """The task's compression at dimension N."""
    if task == "distance":
        return _difference(params["a"], params["b"], N)
    if task == "restricted":
        return _restriction(params["s"], N)
    if task == "weighted":
        return weighted_matrix(params["w"], params["s"], N)
    if task == "opnorm":
        return comp_matrix(params["s"], N)
    raise ValueError(f"unknown task {task!r}; expected one of {_TASKS}")


def _task_target(task: str, params: dict):
    if task == "distance":
        hit = closedform.recognize_distance_target(params["a"], params["b"])
        if hit is not None:
            return hit.value, hit.label
    elif task == "restricted":
        return closedform.recognize_restricted_target(params["s"]), "restricted"
    elif task == "weighted":
        w, s = params["w"], params["s"]
        if taylor_close(w, s):
            return closedform.recognize_restricted_target(s), "weighted"
    elif task == "opnorm":
        return closedform.recognize_opnorm_target(params["s"]), "opnorm"
    return None, None


def require_schedule(dims: Sequence[int]) -> tuple[int, ...]:
    """The dimensions as ints; PreconditionError unless nonempty and strictly increasing."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise PreconditionError("dimension schedule must be nonempty and strictly increasing")
    return dims


def norm_schedule(task: str, params: dict, dims: Sequence[int]) -> ConvergenceReport:
    """Run one extremal task over a strictly increasing dimension schedule.

    One compression is built at the largest dimension, and each value is the
    norm of its leading N x N block.  The build is dropped once the largest
    block's Gram is formed, so at most two full-size arrays are held at once
    (plus numpy's conjugate copy while a complex Gram is formed).  Attaches a
    closed-form target when the inputs match a known formula, and certifies
    that values are nondecreasing and never exceed the target beyond solver
    tolerance; a violation signals a solver bug, not bad input.
    """
    dims = require_schedule(dims)
    # the build validates the inputs, before any closed form reads them
    A = _task_matrix(task, params, dims[-1])
    values = [_top_sv(_gram(A.leading(N))) for N in dims[:-1]]
    G = _gram(A)
    del A  # the build goes before the largest eigensolve, whose input LAPACK copies
    values = (*values, _top_sv(G))
    target, label = _task_target(task, params)
    for a, b in zip(values, values[1:]):
        if b < a - MONOTONE_TOL:
            raise SolverInternalError(
                f"compression values decreased ({a:.15g} -> {b:.15g}) in task {task!r}"
            )
    gaps = None
    if target is not None:
        for v in values:
            if v > target + TARGET_TOL:
                raise SolverInternalError(
                    f"compression value {v:.15g} exceeds closed-form target {target:.15g}"
                )
        gaps = tuple(target - v for v in values)
    return ConvergenceReport(dims=dims, values=values, target=target,
                             target_label=label if target is not None else None, gaps=gaps)
