"""Dense operator algebra on tensor products of d-dimensional sites.

Operators are plain matrices tagged with the sorted list of sites they act
on: float64 if given with a real dtype, else complex128, and real inputs give
real results.  All functions are pure; nothing here mutates its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GeometryError

HERMITICITY_RTOL = 1e-12
PSD_TOL_SCALE = 1e-10


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A dense matrix (float64 if given real, else complex128) and its sites."""

    support: tuple[int, ...]
    matrix: np.ndarray
    local_dim: int = 2

    def __post_init__(self):
        support = tuple(int(s) for s in self.support)
        if any(b <= a for a, b in zip(support, support[1:])):
            raise GeometryError(f"support must be strictly increasing: {support}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, len(support), self.local_dim))

    @property
    def n_sites(self) -> int:
        return len(self.support)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        """max |M - M^dag| <= HERMITICITY_RTOL * max(1, ||M||_F), by `are_hermitian`."""
        return bool(are_hermitian(self.matrix))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The ascending spectrum of a Hermitian operator, solved once: the
        operator is a frozen value, so every scalar read of it shares one solve."""
        if not self.is_hermitian():
            raise ValueError("the spectrum is defined for Hermitian operators only")
        w = np.linalg.eigvalsh(self.matrix)
        w.flags.writeable = False
        return w

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    # Arithmetic embeds both operands onto the union of their supports,
    # so sums and products of operators on different sites just work.
    def __add__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _align(self, other)
        return LocalOperator(a.support, a.matrix + b.matrix, a.local_dim)

    def __sub__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _align(self, other)
        return LocalOperator(a.support, a.matrix - b.matrix, a.local_dim)

    def __matmul__(self, other: "LocalOperator") -> "LocalOperator":
        a, b = _align(self, other)
        return LocalOperator(a.support, a.matrix @ b.matrix, a.local_dim)

    def __mul__(self, scalar) -> "LocalOperator":
        return LocalOperator(self.support, self.matrix * scalar, self.local_dim)

    __rmul__ = __mul__

    def __neg__(self) -> "LocalOperator":
        return self * (-1.0)


def _as_matrix(matrix, n_sites: int, local_dim: int) -> np.ndarray:
    """`matrix` as float64 if real, else complex128, checked to be d^n x d^n, d >= 2."""
    if local_dim < 2:
        raise ValueError(f"local_dim must be >= 2, got {local_dim}")
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    side = local_dim**n_sites
    if m.shape != (side, side):
        raise ValueError(f"matrix shape {m.shape} does not match d^|support| = {side}")
    return m


def are_hermitian(stack: np.ndarray) -> np.ndarray:
    """max |M - M^dag| <= HERMITICITY_RTOL * max(1, ||M||_F), for one matrix M or
    for each of a stack (..., side, side) at once.  ||M||_F is read as s ||M / s||_F,
    s the largest |entry|, so it is inf only past the float range, and an M whose
    ||M||_F is not finite fails: no tolerance overflows to pass any M."""
    top = np.abs(stack).max(axis=(-2, -1), keepdims=True)
    s = np.where((top > 0) & (top < np.inf), top, 1.0)
    frob = np.linalg.norm(stack / s, axis=(-2, -1)) * s[..., 0, 0]
    mismatch = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return (mismatch <= HERMITICITY_RTOL * np.maximum(1.0, frob)) & np.isfinite(frob)


def identity(support: Sequence[int], local_dim: int = 2) -> LocalOperator:
    support = tuple(sorted(int(s) for s in support))
    return LocalOperator(support, np.eye(local_dim ** len(support)), local_dim)


def _align(a: LocalOperator, b: LocalOperator) -> tuple[LocalOperator, LocalOperator]:
    if a.local_dim != b.local_dim:
        raise GeometryError("operators have different local dimensions")
    if a.support == b.support:
        return a, b
    target = tuple(sorted(set(a.support) | set(b.support)))
    return embed(a, target), embed(b, target)


def embed(op: LocalOperator, target: Sequence[int]) -> LocalOperator:
    """Pad with identity and permute legs so the result lives on `target`."""
    target = tuple(sorted(int(t) for t in target))
    if not set(op.support) <= set(target):
        raise GeometryError(
            f"support {op.support} is not contained in target {target}"
        )
    if target == op.support:
        return op
    d = op.local_dim
    extra = tuple(s for s in target if s not in op.support)
    big = np.kron(op.matrix, np.eye(d ** len(extra)))
    legs = list(op.support) + list(extra)
    perm = [legs.index(s) for s in target]
    n = len(target)
    t = big.reshape((d,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return LocalOperator(target, t.reshape(d**n, d**n), d)


def kron(x: LocalOperator, y: LocalOperator) -> LocalOperator:
    """x (x) y for x entirely left of y: one np.kron, where embed(x) @ embed(y)
    would take a product of the joint size."""
    if x.local_dim != y.local_dim:
        raise GeometryError("operators have different local dimensions")
    if x.support[-1] >= y.support[0]:
        raise GeometryError(f"{x.support} must lie entirely left of {y.support}")
    return LocalOperator(x.support + y.support, np.kron(x.matrix, y.matrix), x.local_dim)


def partial_trace(op: LocalOperator, drop: Iterable[int]) -> LocalOperator:
    """Trace out the sites in `drop`; the result lives on the remaining sites."""
    drop = tuple(sorted(set(int(s) for s in drop)))
    if not set(drop) <= set(op.support):
        raise GeometryError(f"drop {drop} is not a subset of support {op.support}")
    keep = tuple(s for s in op.support if s not in drop)
    if not keep:
        raise GeometryError("partial_trace would remove every site; use trace()")
    if not drop:
        return op
    d, n = op.local_dim, op.n_sites
    t = op.matrix.reshape((d,) * (2 * n))
    row = [chr(97 + i) for i in range(n)]
    col = [
        row[i] if op.support[i] in drop else chr(97 + n + i) for i in range(n)
    ]
    out = "".join(row[i] for i in range(n) if op.support[i] not in drop)
    out += "".join(col[i] for i in range(n) if op.support[i] not in drop)
    m = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    k = len(keep)
    return LocalOperator(keep, m.reshape(d**k, d**k), d)


def partial_transpose(op: LocalOperator, subset: Iterable[int]) -> LocalOperator:
    """Transpose the tensor legs belonging to `subset` only."""
    subset = set(int(s) for s in subset)
    if not subset <= set(op.support):
        raise GeometryError(
            f"subset {sorted(subset)} is not contained in support {op.support}"
        )
    d, n = op.local_dim, op.n_sites
    t = op.matrix.reshape((d,) * (2 * n))
    axes = list(range(2 * n))
    for i, site in enumerate(op.support):
        if site in subset:
            axes[i], axes[n + i] = axes[n + i], axes[i]
    t = t.transpose(axes)
    return LocalOperator(op.support, t.reshape(op.dim, op.dim), d)


def herm_fn(op: LocalOperator, scalar_fn: Callable) -> LocalOperator:
    """Apply a scalar function to a Hermitian operator spectrally.

    The result is real when the operator and the values of `scalar_fn` are.
    """
    if not op.is_hermitian():
        raise ValueError("herm_fn requires a Hermitian operator")
    w, v = np.linalg.eigh(op.matrix)
    fw = np.asarray(scalar_fn(w))
    if not np.all(np.isfinite(fw)):
        raise ValueError("scalar function is not finite on the spectrum")
    return LocalOperator(op.support, (v * fw) @ v.conj().T, op.local_dim)


def herm_exp(op: LocalOperator, scale: complex = 1.0) -> LocalOperator:
    """exp(scale * H) for Hermitian H; complex scales give a complex result."""
    return herm_fn(op, lambda w: np.exp(scale * w))


def op_norm(op: LocalOperator) -> float:
    return float(np.abs(op.eigenvalues).max())


def trace_norm(op: LocalOperator) -> float:
    return float(np.abs(op.eigenvalues).sum())


def min_eig(op: LocalOperator) -> float:
    return float(op.eigenvalues[0])


def is_psd(op: LocalOperator) -> bool:
    """PSD up to the eigensolver noise floor: min eig >= -PSD_TOL_SCALE max(1, ||M||)."""
    return min_eig(op) >= -PSD_TOL_SCALE * max(1.0, op_norm(op))
