"""Finite compressions of composition and weighted composition operators in
the monomial basis, largest-singular-value solves, norm distances, and
convergence schedules against closed-form targets.

Compression values are lower bounds of the corresponding operator norms and
are nondecreasing in the dimension (nested orthogonal projections); the
schedule runner certifies both properties on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import closedform
from .errors import PreconditionError, SolverInternalError
from .symbolic import (Symbol, _unit_powers, constant, require_selfmap, rotation_real, taylor,
                       taylor_close)

# Column convolutions switch to numpy.fft at this dimension.  comp_matrix on a
# 2-core x86 VM, direct vs FFT: real alpha(0.5) 1.7 vs 2.7 ms at N=128, 7.0 vs
# 7.3 ms at N=256 (the crossover), 36 vs 23 ms at N=512, 496 vs 59 ms at
# N=1024; complex alpha(0.3+0.4i) crosses below N=256 (12 vs 10 ms).  Kept at
# 512: a lower cut would move the N=256..511 entries by FFT rounding.
FFT_COLUMN_THRESHOLD = 512
MONOTONE_TOL = 1e-9            # certificate slack for nondecreasing values
TARGET_TOL = 1e-9              # certificate slack for value <= target


class RealCore(NamedTuple):
    """A real matrix with unit phases: entries = row[:, None] * real * col.
    The diagonal unitaries keep the singular values, and when col = conj(row)
    the entries are unitarily similar to the real matrix."""

    real: np.ndarray
    row: np.ndarray
    col: np.ndarray


@dataclass(frozen=True)
class OpMatrix:
    """Dense compression of an operator against monomials: float64 when the
    entries are real (real-coefficient symbols), complex128 otherwise.

    basis "full" uses {1, z, ..., z^(N-1)}; basis "h20" uses {z, ..., z^N}
    (the subspace of functions vanishing at the origin).  core, when set,
    factors complex entries through a real matrix (a rotated real symbol).
    """

    entries: np.ndarray
    basis: str
    core: RealCore | None = None

    def __post_init__(self):
        # a read-only view: no copy, and the caller's own array keeps its flags
        dtype = float if np.isrealobj(self.entries) else complex
        a = np.asarray(self.entries, dtype=dtype).view()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("OpMatrix entries must be a square 2-D array")
        if self.basis not in ("full", "h20"):
            raise ValueError(f"unknown basis {self.basis!r}")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def leading(self, N: int) -> "OpMatrix":
        """The leading N x N block, core included: with nested bases, exactly
        the compression at dimension N."""
        core = None if self.core is None else RealCore(
            self.core.real[:N, :N], self.core.row[:N], self.core.col[:N])
        return OpMatrix(self.entries[:N, :N], self.basis, core)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        if self.basis != other.basis or self.dim != other.dim:
            raise ValueError("matrix difference needs matching basis and dimension")
        return OpMatrix(self.entries - other.entries, self.basis)  # no core


def _real_taylor(s: Symbol, N: int) -> np.ndarray:
    """taylor(s, N), as float64 when every coefficient is exactly real."""
    t = taylor(s, N)
    return t if t.imag.any() else t.real.copy()


def _fast_len(n: int, real: bool) -> int:
    """Smallest n' >= n whose prime factors lie in (2, 3, 5) for real FFTs or
    (2, 3, 5, 7, 11) for complex ones: the rule of scipy.fft.next_fast_len."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    while True:
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _power_columns(first: np.ndarray, step: np.ndarray, count: int, length: int) -> np.ndarray:
    """Columns first, first*step, first*step^2, ... under truncated convolution;
    float64 (real FFTs on the FFT path) when first and step are real.  A step
    that is exactly z shifts the columns with no arithmetic."""
    real = np.isrealobj(first) and np.isrealobj(step)
    out = np.zeros((length, count), dtype=float if real else complex)
    col = np.zeros(length, dtype=out.dtype)
    m = min(first.size, length)
    col[:m] = first[:m]
    out[:, 0] = col
    if step.size > 1 and step[1] == 1 and np.count_nonzero(step) == 1:
        col = np.trim_zeros(col, "b")
        for k in range(1, count):
            seg = col[:length - k]
            out[k:k + seg.size, k] = seg
    elif length >= FFT_COLUMN_THRESHOLD:
        fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
        L = _fast_len(2 * length, real)
        step_hat = fft(step, L)
        for k in range(1, count):
            col = ifft(fft(col, L) * step_hat, L)[:length]
            out[:, k] = col
    else:
        for k in range(1, count):
            col = np.convolve(col, step)[:length]
            out[:, k] = col
    return out


def _phased(cols: np.ndarray, basis: str, row: np.ndarray, col: np.ndarray) -> OpMatrix:
    """OpMatrix of entries row[:, None] * cols * col, carrying the real cols."""
    entries = cols * col
    entries *= row[:, None]
    for a in (cols, row, col):
        a.flags.writeable = False
    return OpMatrix(entries, basis, RealCore(cols, row, col))


def comp_matrix(s: Symbol, N: int, basis: str = "full") -> OpMatrix:
    """Compression of the composition operator f -> f o s.

    full: column k holds the first N Taylor coefficients of s^k (column 0 is
    e_0, the constant function).  h20: column k (k = 1..N) holds coefficients
    1..N of s^k.  For s(z) = lam psi(mu z) with psi real (rotation_real), the
    columns of psi are built in real arithmetic and carried as the core:
    C_s = D_mu C_psi D_lam with D_c = diag(c^k) over the basis degrees k.
    """
    if N < 2:
        raise PreconditionError("compression dimension must be >= 2")
    require_selfmap(s)
    if basis not in ("full", "h20"):
        raise ValueError(f"unknown basis {basis!r}")
    shift = int(basis == "h20")  # h20 degrees start at 1
    rot = rotation_real(s)  # psi is a selfmap too: |psi(w)| = |s(conj(mu) w)|
    t = _real_taylor(s if rot is None else rot[2], N + shift)
    if shift:
        cols = _power_columns(t, t, N, N + 1)[1:, :]
    else:
        e0 = np.zeros(N)
        e0[0] = 1.0
        cols = _power_columns(e0, t, N, N)
    if rot is None:
        return OpMatrix(cols, basis)
    lam, mu, _ = rot
    return _phased(cols, basis, _unit_powers(mu, N + shift)[shift:],
                   _unit_powers(lam, N + shift)[shift:])


def const_matrix(p: complex, N: int) -> OpMatrix:
    """Compression of the point-evaluation operator f -> f(p) * 1."""
    return comp_matrix(constant(p), N)


def weighted_matrix(w: Symbol, s: Symbol, N: int) -> OpMatrix:
    """Compression of f -> w * (f o s): column k = taylor(w * s^k, N).  Real
    core (see comp_matrix) when s(z) = lam psi(mu z) and w(z) = lam_w
    psi_w(mu z) with the same mu."""
    require_selfmap(s)
    rot = rotation_real(s)
    rot_w = None if rot is None else rotation_real(w, rot[1])
    if rot_w is None:
        return OpMatrix(_power_columns(_real_taylor(w, N), _real_taylor(s, N), N, N), "full")
    (lam, mu, psi), (lam_w, _, psi_w) = rot, rot_w
    cols = _power_columns(_real_taylor(psi_w, N), _real_taylor(psi, N), N, N)
    return _phased(cols, "full", _unit_powers(mu, N), lam_w * _unit_powers(lam, N))


# ---------------------------------------------------------------------------
# largest singular value


def _entries(A, core: str | None = None) -> np.ndarray:
    """A's entries, or the real matrix of its core when core is "svd" (any
    phases keep the singular values) or "similar" (col = conj(row): a unitary
    similarity, which keeps the numerical range)."""
    if isinstance(A, OpMatrix):
        c = A.core
        if c is not None and (core == "svd" or core == "similar"
                              and np.array_equal(c.col, c.row.conj())):
            return c.real
        return A.entries
    return np.asarray(A, dtype=float if np.isrealobj(A) else complex)


def op_norm(A) -> float:
    """Largest singular value of a compression, by one dense LAPACK solve:
    the top eigenvalue of the Gram matrix M^T M for real M (0.7 s against 3.5 s
    for a complex SVD at N=2048 on 2 cores), a complex SVD otherwise.  An
    OpMatrix with a real core is solved on the core.

    Compressions of slow-gap operators (automorphisms, non-inner symbols
    touching the circle) have clustered top singular values, where power
    iteration needs thousands of steps; a dense solve costs the same at any gap.
    """
    M = _entries(A, "svd")
    if np.isrealobj(M):
        return float(np.sqrt(max(np.linalg.eigvalsh(M.T @ M)[-1], 0.0)))
    return float(np.linalg.svd(M, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# distances and restrictions


def distance(a: Symbol, b: Symbol, N: int) -> float:
    """Compression of ||C_a - C_b||; a monotone-in-N lower bound of the norm."""
    return op_norm(comp_matrix(a, N, "full") - comp_matrix(b, N, "full"))


def restricted_norm(s: Symbol, N: int) -> float:
    """Compression of the restriction of C_s to functions vanishing at 0.

    For s(0) = 0 this equals the compression of ||C_s - C_0||: the full-basis
    difference has a zero first row and column, and dropping them yields
    exactly the h20 matrix.
    """
    return op_norm(comp_matrix(s, N, "h20"))


def _leading_block_norms(build, dims: Sequence[int]) -> tuple[float, ...]:
    """Norms of the leading N x N blocks of one matrix build(max(dims)).

    Every compression here uses nested bases, so the block at N is exactly
    the compression built at N; one build serves a whole schedule.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 2:
        raise PreconditionError("compression dimension must be >= 2")
    M = build(max(dims))
    return tuple(op_norm(M.leading(N)) for N in dims)


def restricted_norms(s: Symbol, dims: Sequence[int]) -> tuple[float, ...]:
    """restricted_norm(s, N) for each N in dims, from one h20 build."""
    return _leading_block_norms(lambda N: comp_matrix(s, N, "h20"), dims)


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-dimension values of one extremal task, with an optional target."""

    task: str
    params: dict
    dims: tuple[int, ...]
    values: tuple[float, ...]
    target: float | None = None
    target_label: str | None = None
    gaps: tuple[float, ...] | None = field(default=None)

    @property
    def final_value(self) -> float:
        return self.values[-1]


_TASKS = ("distance", "restricted", "weighted", "opnorm")


def _task_matrix(task: str, params: dict, N: int) -> OpMatrix:
    """The task's compression at dimension N."""
    if task == "distance":
        return comp_matrix(params["a"], N) - comp_matrix(params["b"], N)
    if task == "restricted":
        return comp_matrix(params["s"], N, "h20")
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


def norm_schedule(task: str, params: dict, dims: Sequence[int]) -> ConvergenceReport:
    """Run one extremal task over a strictly increasing dimension schedule.

    One compression is built at the largest dimension, and each value is the
    norm of its leading N x N block.  Attaches a closed-form target when the
    inputs match a known formula, and certifies that values are nondecreasing
    and never exceed the target beyond solver tolerance; a violation signals a
    solver bug, not bad input.
    """
    dims = tuple(int(d) for d in dims)
    if any(b <= a for a, b in zip(dims, dims[1:])) or not dims:
        raise PreconditionError("dimension schedule must be nonempty and strictly increasing")
    target, label = _task_target(task, params)
    values = _leading_block_norms(lambda N: _task_matrix(task, params, N), dims)
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
    pretty = {k: str(v) if isinstance(v, Symbol) else v for k, v in params.items()}
    return ConvergenceReport(task=task, params=pretty, dims=dims, values=values,
                             target=target, target_label=label if target is not None else None,
                             gaps=gaps)
