"""Finite compressions of composition and weighted composition operators in
the monomial basis, largest-singular-value solves, norm distances, and
convergence schedules against closed-form targets.

Compression values are lower bounds of the corresponding operator norms and
are nondecreasing in the dimension (nested orthogonal projections); the
schedule runner certifies both properties on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closedform
from .errors import PreconditionError, SolverInternalError
from .symbolic import (Symbol, constant, require_origin_fixed, require_selfmap, rotation_real,
                       taylor, taylor_close, unit_powers)

MONOTONE_TOL = 1e-9            # certificate slack for nondecreasing values
TARGET_TOL = 1e-9              # certificate slack for value <= target
_SLAB = 128                    # columns per Gram slab (_gram)


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
        """The leading N x N block: with nested bases, exactly the compression
        at dimension N."""
        return self._block(N, 0, 0)

    def _block(self, N: int, i: int, j: int) -> "OpMatrix":
        """The N x N block at (i, j), phases sliced with it, for
        2 <= N <= dim - max(i, j)."""
        top = self.dim - max(i, j)
        if not 2 <= N <= top:
            bound = "be >= 2" if N < 2 else f"be at most {top}"
            raise PreconditionError(f"compression dimension must {bound}, got {N}")
        phases = () if self.row is None else (self.row[i:i + N], self.col[j:j + N])
        return OpMatrix(self.matrix[i:i + N, j:j + N], *phases)


def as_opmatrix(A) -> OpMatrix:
    """A itself, or a square array as an OpMatrix with no phases."""
    return A if isinstance(A, OpMatrix) else OpMatrix(A)


def _powers(step: np.ndarray, length: int):
    """Yields e_0, step, step^2, ... under truncated convolution by
    np.convolve, of step's dtype, up to the first zero column.  The step drops
    its coefficients below eps^2 times its largest and its trailing zeros; the
    step z is exact too, each entry being x*1 + y*0.  A longer build's leading
    block is bitwise the shorter build unless their steps trim to different
    lengths (a lacunary step with terms past the shorter length).  Entries
    below eps^2, which is eps^2 times the largest of column 0 (so below
    eps^2 ||M||), become 0 as formed, keeping out subnormals, on which LAPACK
    runs several times slower."""
    tiny = np.finfo(float).eps ** 2
    col = np.zeros(length, dtype=step.dtype)
    col[0] = 1.0
    step = np.where(np.abs(step) < tiny * np.abs(step).max(), 0, step)
    step = step[:np.flatnonzero(step).max(initial=0) + 1]
    while True:
        col[np.abs(col) < tiny] = 0
        if not col.any():
            return
        yield col
        col = np.convolve(col, step)[:length]


def _build(s: Symbol, N: int):
    """(step, phases) of the compression of C_s at dimension N: column k holds
    taylor(s^k, N), the powers of step = taylor(s, N) (_powers).  When s(z) =
    lam psi(mu z) with psi real (rotation_real), the columns are the real ones
    of psi^k, and phases is (mu^d, lam^k) over the degrees d, k < N; else
    phases is ()."""
    if N < 2:
        raise PreconditionError(f"compression dimension must be >= 2, got {N}")
    require_selfmap(s)
    rot = rotation_real(s)  # psi is a selfmap too: |psi(w)| = |s(conj(mu) w)|
    phases = ()
    if rot is not None:
        lam, mu, s = rot
        phases = unit_powers(mu, N), unit_powers(lam, N)
    step = taylor(s, N)  # float64 when every coefficient is exactly real
    return (step if step.imag.any() else step.real.copy()), phases


def _compression(s: Symbol, N: int) -> OpMatrix:
    """The compression of _build with its phases, stored column-major, so
    each column write is contiguous and the zero columns after the build
    ends are never touched."""
    step, phases = _build(s, N)
    out = np.zeros((N, N), dtype=step.dtype, order="F")
    for k, col in zip(range(N), _powers(step, N)):
        out[:, k] = col
    return OpMatrix(out, *phases)


def _difference(a: Symbol, b: Symbol, N: int) -> OpMatrix:
    """comp_matrix(a, N).entries - comp_matrix(b, N).entries in two passes
    over one column-major array, the only N x N one: a's columns are written,
    then b's are subtracted as they are formed, phases applied as
    OpMatrix.entries applies them.  Equal to the subtraction entry by entry;
    the signs of zeros may differ."""
    (step, phases), (step_b, phases_b) = (_build(s, N) for s in (a, b))
    dtype = np.result_type(step, *phases, step_b, *phases_b)
    out = np.zeros((N, N), dtype=dtype, order="F")
    for k, col in zip(range(N), _powers(step, N)):
        out[:, k] = col * phases[1][k] * phases[0] if phases else col
    for k, col in zip(range(N), _powers(step_b, N)):
        out[:, k] -= col * phases_b[1][k] * phases_b[0] if phases_b else col
    return OpMatrix(out)


def comp_matrix(s: Symbol, N: int, basis: str = "full") -> OpMatrix:
    """Compression of f -> f o s.  full: column k holds the first N Taylor
    coefficients of s^k (column 0 is e_0, the constant function); h20: column
    k (k = 1..N) holds coefficients 1..N of s^k, the block at (1, 1) of the
    full build at N + 1."""
    if basis not in ("full", "h20"):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "h20":
        return _compression(s, N + 1)._block(N, 1, 1)
    return _compression(s, N)


def const_matrix(p: complex, N: int) -> OpMatrix:
    """Compression of the point-evaluation operator f -> f(p) * 1."""
    return comp_matrix(constant(p), N)


def weighted_matrix(w: Symbol, s: Symbol, N: int) -> OpMatrix:
    """Compression of T_{s,s} f = s * (f o s): column k holds the first N
    Taylor coefficients of s^(k+1), the block at (0, 1) of the full build at
    N + 1.  The weight w must be s."""
    if not taylor_close(w, s):
        raise PreconditionError("the weighted compression takes the weight w = s only")
    return _compression(s, N + 1)._block(N, 0, 1)


def _restriction(s: Symbol, N: int) -> OpMatrix:
    """The h20 compression, which is that of C_s restricted to zH^2 only for
    s fixing 0: otherwise it loses row 0, which holds s(0)^k."""
    require_selfmap(s)
    require_origin_fixed(s, "the restriction to zH^2")
    return comp_matrix(s, N, "h20")


# ---------------------------------------------------------------------------
# largest singular value


def _gram(A, in_place: bool = False) -> np.ndarray:
    """A K x K column-major array whose lower triangle, the one eigvalsh
    reads, is that of M^H M for real M and of conj(M^H M), with the same
    eigenvalues, for complex M.  M is the stored matrix (an OpMatrix's phases
    keep the singular values) up to its last nonzero column K:
    Gram([M_K 0]) is diag(Gram(M_K), 0), and a contraction's flushed build
    has K set by sup|phi|, not by N.  Slab J, the _SLAB columns from j, writes
    the transpose of M[:, J]^H M[:, j:] into rows j: of column block J, so
    only a slab is conjugated.  It reads only columns j and later and writes
    nowhere past the start of build column j + _SLAB, so in_place forms the
    array in the first K^2 entries of the build's own column-major buffer,
    overwriting the build: only for one compop made for this norm.
    Otherwise the array is fresh and M is never written."""
    M = as_opmatrix(A).matrix
    K = np.flatnonzero(M.any(axis=0)).max(initial=0) + 1
    M = M[:, :K]
    if in_place:  # the build's owner, column-major: its transpose flattens as a view
        G = M.base.T.reshape(-1)[:K * K].reshape(K, K).T
    else:
        G = np.empty((K, K), dtype=M.dtype, order="F")
    for j in range(0, K, _SLAB):
        J = slice(j, j + _SLAB)
        G[j:, J] = (M[:, J].conj().T @ M[:, j:]).T
    return G


def _top_sv(G: np.ndarray) -> float:
    """The square root of the top eigenvalue of a Gram matrix, by one dense
    LAPACK eigensolve of its lower triangle."""
    return float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def op_norm(A) -> float:
    """Largest singular value of a compression: the square root of the top
    eigenvalue of its Gram matrix (_gram), by one dense LAPACK eigensolve, for
    real and complex M alike.  The Gram is a fresh array: A, the caller's,
    is never written.  Norms of builds compop makes itself form the Gram in
    place of the build instead.

    Compressions of slow-gap operators (automorphisms, non-inner symbols
    touching the circle) have clustered top singular values, where power
    iteration needs thousands of steps; a dense solve costs the same at any gap.
    """
    return _top_sv(_gram(A))


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


# task: (its compression at dimension N, its closed-form target: a value, a
# DistanceTarget with its own label, or None)
_TASK_TABLE = {
    "distance": (lambda p, N: _difference(p["a"], p["b"], N),
                 lambda p: closedform.recognize_distance_target(p["a"], p["b"])),
    "restricted": (lambda p, N: _restriction(p["s"], N),
                   lambda p: closedform.recognize_restricted_target(p["s"])),
    "weighted": (lambda p, N: weighted_matrix(p["w"], p["s"], N),
                 lambda p: closedform.recognize_restricted_target(p["s"])),
    "opnorm": (lambda p, N: comp_matrix(p["s"], N),
               lambda p: closedform.recognize_opnorm_target(p["s"])),
}


def require_schedule(dims: Sequence[int]) -> tuple[int, ...]:
    """The dimensions as ints; PreconditionError unless nonempty and strictly increasing."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise PreconditionError("dimension schedule must be nonempty and strictly increasing")
    return dims


def norm_schedule(task: str, params: dict, dims: Sequence[int]) -> ConvergenceReport:
    """Run one extremal task over a strictly increasing dimension schedule.

    One compression is built at the largest dimension, and each value is the
    norm of its leading N x N block.  The leading blocks' Grams are fresh
    arrays; the largest Gram is formed in place of the build once they are
    solved, so one full-size array is held while it is formed and two during
    its eigensolve (LAPACK's copy), for real and complex builds alike.  Attaches a
    closed-form target when the inputs match a known formula, and certifies
    that values are nondecreasing and never exceed the target beyond solver
    tolerance; a violation signals a solver bug, not bad input.
    """
    dims = require_schedule(dims)
    if task not in _TASK_TABLE:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(_TASK_TABLE)}")
    build, recognize = _TASK_TABLE[task]
    # the build validates the inputs, before any closed form reads them
    A = build(params, dims[-1])
    values = [_top_sv(_gram(A.leading(N))) for N in dims[:-1]]
    values = (*values, _top_sv(_gram(A, in_place=True)))  # overwrites A: solve it last
    hit = recognize(params)
    target, label = ((hit.value, hit.label) if isinstance(hit, closedform.DistanceTarget)
                     else (hit, task))
    for a, b in zip(values, values[1:]):
        if b < a - MONOTONE_TOL:
            raise SolverInternalError(
                f"compression values decreased ({a:.15g} -> {b:.15g}) in task {task!r}")
    gaps = None
    if target is not None:
        for v in values:
            if v > target + TARGET_TOL:
                raise SolverInternalError(
                    f"compression value {v:.15g} exceeds closed-form target {target:.15g}")
        gaps = tuple(target - v for v in values)
    return ConvergenceReport(dims=dims, values=values, target=target,
                             target_label=label if target is not None else None, gaps=gaps)


def distance(a: Symbol, b: Symbol, N: int) -> float:
    """Compression of ||C_a - C_b||; a monotone-in-N lower bound of the norm."""
    return norm_schedule("distance", {"a": a, "b": b}, (N,)).values[0]


def restricted_norm(s: Symbol, N: int) -> float:
    """Compression of the norm of C_s restricted to zH^2, for s fixing 0; also
    that of ||C_s - C_0||, whose full-basis matrix adds a zero row and column."""
    return norm_schedule("restricted", {"s": s}, (N,)).values[0]
