"""Gibbs states, partition functions, marginals and information measures."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import BudgetError, GeometryError
from .linalg import (
    HERMITICITY_BLOCK,
    LocalOperator,
    embed,
    kron,
    op_norm,
    partial_trace,
    trace_norm,
)
from .model import Interaction, RegionsABC, hamiltonian

DEFAULT_BUDGET = 4096
LOG_FLOOR = 1e-300
# relative slack of the partition-function inequality chains, in the log domain
PARTITION_RATIO_SLACK = 1e-9
# how far from 1 the trace of a Gibbs state or of a marginal may be
NORMALIZATION_TOL = 1e-12


def _region(region: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(s) for s in region)))


def _boltzmann(w: np.ndarray) -> np.ndarray:
    """e^{-(w - w_min)} for an ascending spectrum: in (0, 1], so it cannot overflow."""
    return np.exp(w[0] - w)


def _state(support: tuple[int, ...], m: np.ndarray, local_dim: int) -> LocalOperator:
    """`m` as a state on `support`, after checking that its trace is 1."""
    if abs(np.trace(m).real - 1.0) > NORMALIZATION_TOL:
        raise RuntimeError("Gibbs state failed its normalization check")
    return LocalOperator(support, m, local_dim)


def from_spectrum(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(f) V^dag: the one place a function of a spectrum is formed."""
    return (v * f) @ v.conj().T


# ---------------------------------------------------------------------------
# Block spectra from exact structure
# ---------------------------------------------------------------------------

def _components(h: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of h, where i and j are
    linked if h[i, j] or h[j, i] is nonzero: ascending index arrays, ordered
    by their least index."""
    link = h != 0
    n, b = len(h), HERMITICITY_BLOCK
    for i in range(0, n, b):  # link |= link.T, block by block, so each block is read from cache
        for j in range(i, n, b):
            either = link[i:i + b, j:j + b] | link[j:j + b, i:i + b].T
            link[i:i + b, j:j + b], link[j:j + b, i:i + b] = either, either.T
    link.flat[::n + 1] = False
    root = np.where(link.any(axis=1), -1, np.arange(n))  # a lone index is its own root
    unseen = np.flatnonzero(root < 0)
    while unseen.size:  # breadth-first from the least index not yet reached
        start = frontier = unseen[:1]
        while frontier.size:
            root[frontier] = start
            frontier = np.flatnonzero(link[frontier].any(axis=0) & (root < 0))
        unseen = np.flatnonzero(root < 0)
    if not root.any():
        return [np.arange(n)]
    order = np.argsort(root, kind="stable")
    _, first = np.unique(root[order], return_index=True)
    return np.split(order, first[1:])


def _pieces(h: np.ndarray) -> list[tuple] | None:
    """Split a Hermitian h into independent pieces by two exact symmetries.

    Each connected component c of h's nonzero pattern is a block h[c, c], and
    blocks of equal size are stacked.  A block that the global flip
    i -> N-1-i maps onto itself, with b == b[::-1, ::-1], folds into the two
    Hermitian halves b00 + s b01 J, s = +1 then -1 (J reverses the columns):
    if (b00 + s b01 J) u = w u, then [u; s J u] / sqrt 2 is an eigenvector of
    b.  A piece is (matrices (k, m, m), rows (k, m), mirror rows (k, m) or
    None): eigenvector j of matrix i has the entries u[:, j] at rows[i] and,
    for a fold, s u[:, j] at mirror[i], each over sqrt 2.  None if h is one
    block with no fold.
    """
    n = len(h)
    comps = _components(h)
    pieces, by_size = [], {}
    for c in comps:
        if len(c) % 2 == 0 and np.array_equal(c, n - 1 - c[::-1]):
            b = h if len(c) == n else h[np.ix_(c, c)]
            # b == b[::-1, ::-1]; its first row first, so most b fail in O(side)
            if np.array_equal(b[0], b[-1, ::-1]) and np.array_equal(b, b[::-1, ::-1]):
                m = len(c) // 2
                b00, b01_j = b[:m, :m], b[:m, m:][:, ::-1]
                halves = np.empty((2, m, m), h.dtype)
                np.add(b00, b01_j, out=halves[0])
                np.subtract(b00, b01_j, out=halves[1])
                top, mirror = c[:m], c[m:][::-1]
                pieces.append((halves, np.stack([top, top]), np.stack([mirror, mirror])))
                continue
        by_size.setdefault(len(c), []).append(c)
    if len(comps) == 1 and not pieces:
        return None
    for cs in by_size.values():
        rows = np.stack(cs)
        pieces.append((h[rows[:, :, None], rows[:, None, :]], rows, None))
    return pieces


def _merge(pieces: list[tuple], n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of the matrix that `pieces` split: every piece solved (a 1 x 1
    matrix needs no solve) and dropped, the eigenvalues merged in ascending
    order, and each eigenvector scattered into its sorted column of one V."""
    spectra = []
    while pieces:
        mats, rows, mirror = pieces.pop(0)
        if mats.shape[-1] == 1:
            w, u = mats[:, 0, :].real, np.ones_like(mats)
        else:
            w, u = np.linalg.eigh(mats)
        del mats
        spectra.append((w.ravel(), u, rows, mirror))
    w = np.concatenate([s[0] for s in spectra])
    order = np.argsort(w, kind="stable")
    col = np.empty(n, dtype=np.intp)
    col[order] = np.arange(n)
    v = np.zeros((n, n), dtype)
    start = 0
    while spectra:
        _, u, rows, mirror = spectra.pop(0)
        k, m = rows.shape
        cols = col[start:start + k * m].reshape(k, 1, m)
        start += k * m
        if mirror is not None:
            u *= np.sqrt(0.5)
        v[rows[:, :, None], cols] = u
        if mirror is not None:
            u[1] *= -1
            v[mirror[:, :, None], cols] = u
    return w[order], v


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """The thermal state exp(-H_R)/Z on a region, held as its spectrum.

    rho = V diag(p) V^dag, with V the Chain's own eigenvectors of H_R (an
    array, not the Chain, so a state in the Chain's memo makes no cycle) and
    p = e^{-(w - w_min)} / sum e^{-(w - w_min)}, which cannot overflow.  `rho`
    is formed on first read; `marginal` of a proper subregion never forms it.
    """

    region: tuple[int, ...]
    p: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    local_dim: int

    @cached_property
    def rho(self) -> LocalOperator:
        return _state(self.region, from_spectrum(self.p, self.v), self.local_dim)


class Chain:
    """Spectral context of one interaction under one dense-size budget.

    Each region Hamiltonian is assembled, checked for Hermiticity and
    diagonalized at most once, and only its spectrum is kept; it alone turns
    that into e^{tH_R} for any t, Gibbs states, marginals and log Z.
    Everything computed is kept until the context is dropped, so a
    context should live for one unit of work.  Every public function that
    takes an Interaction also takes a Chain; given an Interaction, it builds
    a Chain at DEFAULT_BUDGET.  `Chain(ia, budget)` is the only place a
    budget is set.
    """

    def __init__(self, ia: Interaction, budget: int = DEFAULT_BUDGET):
        self.ia = ia
        self.budget = budget
        self._memo: dict = {}

    @staticmethod
    def of(system: Interaction | Chain) -> Chain:
        """`system` itself if it is a Chain, else a new Chain on it."""
        return system if isinstance(system, Chain) else Chain(system)

    def cached(self, key, build: Callable[[], Any]):
        """The value stored under `key`, computed by `build()` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spectrum(self, region: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of H_R; H_R itself is not kept.

        H_R is solved by the blocks its exact structure gives (see `_pieces`),
        freed before the block solves; a matrix with no such structure goes to
        one `np.linalg.eigh`.
        """
        region = _region(region)

        def build():
            dim = self.ia.local_dim ** len(region)
            if dim > self.budget:
                raise BudgetError(dim, self.budget)
            h = hamiltonian(self.ia, region)
            if not h.is_hermitian():
                raise ValueError(f"the Hamiltonian of {region} is not Hermitian")
            h = h.matrix
            pieces = _pieces(h)
            if pieces is None:
                return np.linalg.eigh(h)
            n, dtype = len(h), h.dtype
            del h
            return _merge(pieces, n, dtype)

        return self.cached(("eigh", region), build)

    def exp_spectrum(self, region: Sequence[int], t: complex) -> tuple:
        """(e^{tw}, V) for H_R = V diag(w) V^dag, checked for overflow."""
        w, v = self.spectrum(region)
        with np.errstate(over="ignore"):
            f = np.exp(t * w)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"e^(tH) overflows on the spectrum of {_region(region)} at t={t}")
        return f, v

    def exp(self, region: Sequence[int], t: complex) -> LocalOperator:
        """e^{t H_R}; complex t is fine."""
        m = from_spectrum(*self.exp_spectrum(region, t))
        return LocalOperator(_region(region), m, self.ia.local_dim)

    def log_partition_function(self, region: Sequence[int]) -> float:
        """log Tr e^{-H_R} = -w_min + log sum e^{-(w - w_min)}, finite at any coupling."""
        w = self.spectrum(region)[0]
        return float(-w[0] + np.log(_boltzmann(w).sum()))

    def gibbs(self, region: Sequence[int]) -> GibbsEnsemble:
        region = _region(region)

        def build():
            w, v = self.spectrum(region)
            f = _boltzmann(w)
            return GibbsEnsemble(region, f / f.sum(), v, self.ia.local_dim)

        return self.cached(("gibbs", region), build)

    def marginal(self, region: Sequence[int], x: Sequence[int]) -> LocalOperator:
        """rho_X of the Gibbs state on `region`, formed once per Chain."""
        region, x = _region(region), _region(x)
        return self.cached(("marginal", region, x), lambda: marginal(self.gibbs(region), x))


def gibbs(system: Interaction | Chain, region: Sequence[int]) -> GibbsEnsemble:
    return Chain.of(system).gibbs(region)


def marginal(g: GibbsEnsemble, x: Sequence[int]) -> LocalOperator:
    """rho_X = tr_{R\\X} rho, straight from the spectrum for a proper subregion.

    With S = V diag(sqrt p), its legs ordered (X, rest of R, eigenvalue) and
    read as a d_X x (d_rest N) matrix, rho_X = S S^dag: one d_X N^2 Gram,
    with no N^3 product and no partial trace.
    """
    x = _region(x)
    if not x or not set(x) <= set(g.region):
        raise GeometryError(f"{x} is not a nonempty subregion of {g.region}")
    if x == g.region:
        return g.rho
    d, n = g.local_dim, len(g.region)
    legs = [g.region.index(s) for s in x]
    legs += [i for i in range(n + 1) if i not in legs]
    v = g.v.reshape((d,) * n + (-1,)).transpose(legs)
    s = np.multiply(v, np.sqrt(g.p), out=np.empty(v.shape, v.dtype))
    s = s.reshape(d ** len(x), -1)
    return _state(x, s @ s.conj().T, d)


# ---------------------------------------------------------------------------
# Entropic quantities
# ---------------------------------------------------------------------------

def entropy(rho: LocalOperator) -> float:
    """von Neumann entropy in nats, with a defensive eigenvalue floor."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = np.clip(w, LOG_FLOOR, None)
    return float(-(w * np.log(w)).sum())


def _log_matrix(rho: LocalOperator) -> np.ndarray:
    w, v = np.linalg.eigh(rho.matrix)
    return from_spectrum(np.log(np.clip(w, LOG_FLOOR, None)), v)


def relative_entropy(rho: LocalOperator, sigma: LocalOperator) -> float:
    """Tr[rho (log rho - log sigma)] for states on the same support."""
    if rho.support != sigma.support:
        raise GeometryError("relative entropy requires matching supports")
    tr_rho_log_sigma = float(np.trace(rho.matrix @ _log_matrix(sigma)).real)
    return -entropy(rho) - tr_rho_log_sigma


def mutual_information_of(rho_ac: LocalOperator, cut_a: Sequence[int]) -> float:
    """I(A:C) = D(rho_AC || rho_A x rho_C) for a state across a cut."""
    cut_a = tuple(sorted(int(s) for s in cut_a))
    cut_c = tuple(s for s in rho_ac.support if s not in set(cut_a))
    if not cut_a or not cut_c or not set(cut_a) <= set(rho_ac.support):
        raise GeometryError("cut must split the support into two nonempty parts")
    rho_a = partial_trace(rho_ac, cut_c)
    rho_c = partial_trace(rho_ac, cut_a)
    product = embed(rho_a, rho_ac.support) @ embed(rho_c, rho_ac.support)
    return max(relative_entropy(rho_ac, product), 0.0)


def mutual_information(system: Interaction | Chain, regions: RegionsABC) -> float:
    rho_ac = Chain.of(system).marginal(regions.all_sites, regions.ac)
    return mutual_information_of(rho_ac, regions.a)


# ---------------------------------------------------------------------------
# Inequality checks consumed by the verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionRatioReport:
    z_a: float
    z_b: float
    z_ab: float
    ratio_bound_ok: bool          # Tr e^{-H'} / Tr e^{-H} <= e^{||H-H'||}
    size_bounds_ok: bool          # e^{(log d - J)|A|} <= Z_A <= e^{(log d + J)|A|}
    split_bounds_ok: bool         # e^{-rJ} <= Z_A Z_B / Z_AB <= e^{rJ}

    @property
    def all_ok(self) -> bool:
        return self.ratio_bound_ok and self.size_bounds_ok and self.split_bounds_ok


def _crossing_norm(ia: Interaction, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """||H_AB - H_A - H_B|| for A left of B, on the window W of the 2r sites
    around the cut: every term that crosses it lies in W, so the difference is
    H_W - H_{W n A} - H_{W n B}, embedded, and embedding keeps the norm."""
    r = ia.interaction_range
    if not r:
        return 0.0
    window = tuple(s for s in a + b if b[0] - r <= s < b[0] + r)
    w_a = tuple(s for s in window if s < b[0])
    w_b = tuple(s for s in window if s >= b[0])
    return op_norm(hamiltonian(ia, window) - (hamiltonian(ia, w_a) + hamiltonian(ia, w_b)))


def check_partition_ratios(
    system: Interaction | Chain,
    a: Sequence[int],
    b: Sequence[int],
) -> PartitionRatioReport:
    """Verify the three partition-function inequality chains for adjacent A, B.

    Every inequality is compared in the log domain, on log Z, so neither Z
    nor a bound can overflow to inf or underflow to 0 and pass vacuously.
    """
    a = tuple(sorted(int(s) for s in a))
    b = tuple(sorted(int(s) for s in b))
    if a[-1] + 1 != b[0]:
        raise GeometryError("A and B must be adjacent intervals")
    ab = a + b
    chain = Chain.of(system)
    ia = chain.ia
    log_z = {r: chain.log_partition_function(r) for r in (ab, a, b)}
    lo, hi = np.log1p(-PARTITION_RATIO_SLACK), np.log1p(PARTITION_RATIO_SLACK)

    gap = _crossing_norm(ia, a, b)
    log_ratio = log_z[ab] - log_z[a] - log_z[b]
    ratio_ok = abs(log_ratio) <= gap + hi

    log_d, j = np.log(ia.local_dim), ia.strength
    size_ok = all(
        (log_d - j) * len(r) + lo <= log_z[r] <= (log_d + j) * len(r) + hi
        for r in (a, b, ab)
    )

    rj = ia.interaction_range * j
    split_ok = -rj + lo <= -log_ratio <= rj + hi
    with np.errstate(over="ignore"):  # a Z beyond the float range is reported as inf
        z_a, z_b, z_ab = (float(np.exp(log_z[r])) for r in (a, b, ab))
    return PartitionRatioReport(z_a, z_b, z_ab, bool(ratio_ok), bool(size_ok), bool(split_ok))


@dataclass(frozen=True)
class FactorizationError:
    op_norm_err: float
    trace_norm_err: float


def factorization_error(
    system: Interaction | Chain, regions: RegionsABC
) -> FactorizationError:
    """Norms of rho_AC - rho_A x rho_C on the full Gibbs state of ABC."""
    rho_ac = Chain.of(system).marginal(regions.all_sites, regions.ac)
    rho_a = partial_trace(rho_ac, regions.c)
    rho_c = partial_trace(rho_ac, regions.a)
    diff = rho_ac - kron(rho_a, rho_c)
    return FactorizationError(op_norm(diff), trace_norm(diff))
