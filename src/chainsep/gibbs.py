"""Gibbs states, partition functions, marginals and information measures."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import BudgetError, GeometryError
from .linalg import (
    LocalOperator,
    embed,
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


def _state(support: tuple[int, ...], m: np.ndarray, local_dim: int) -> LocalOperator:
    """`m` as a state on `support`, after checking that its trace is 1."""
    if abs(np.trace(m).real - 1.0) > NORMALIZATION_TOL:
        raise RuntimeError("Gibbs state failed its normalization check")
    return LocalOperator(support, m, local_dim)


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """The thermal state exp(-H_R)/Z on a region, held as its spectrum.

    rho = V diag(p) V^dag, with V the Chain's own eigenvectors of H_R (an
    array, not the Chain, so a state in the Chain's memo makes no cycle) and
    p = e^{-w}/Z.  `rho` is formed on first read; `marginal` of a proper
    subregion never forms it.
    """

    region: tuple[int, ...]
    z: float
    p: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    local_dim: int

    @cached_property
    def rho(self) -> LocalOperator:
        return _state(self.region, (self.v * self.p) @ self.v.conj().T, self.local_dim)


class Chain:
    """Spectral context of one interaction under one dense-size budget.

    Each region Hamiltonian is assembled, checked for Hermiticity and
    diagonalized at most once, and only its spectrum is kept; exponentials
    e^{tH_R} for any t, Gibbs states and partition functions are served from
    it.  Everything computed is kept until the context is dropped, so a
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
        """Eigenvalues (ascending) and eigenvectors of H_R; H_R itself is not kept."""
        region = _region(region)

        def build():
            dim = self.ia.local_dim ** len(region)
            if dim > self.budget:
                raise BudgetError(dim, self.budget)
            h = hamiltonian(self.ia, region)
            if not h.is_hermitian():
                raise ValueError(f"the Hamiltonian of {region} is not Hermitian")
            return np.linalg.eigh(h.matrix)

        return self.cached(("eigh", region), build)

    def _exp_spectrum(self, region: tuple[int, ...], t: complex) -> tuple:
        """(e^{tw}, V) for H_R = V diag(w) V^dag, checked for overflow."""
        w, v = self.spectrum(region)
        f = np.exp(t * w)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"e^(tH) overflows on the spectrum of {region} at t={t}")
        return f, v

    def exp(self, region: Sequence[int], t: complex) -> LocalOperator:
        """e^{t H_R}; complex t is fine."""
        region = _region(region)
        f, v = self._exp_spectrum(region, t)
        return LocalOperator(region, (v * f) @ v.conj().T, self.ia.local_dim)

    def split_exp(self, x: Sequence[int], y: Sequence[int], t: complex) -> LocalOperator:
        """e^{t(H_X + H_Y)} = e^{tH_X} (x) e^{tH_Y} for X entirely left of Y,
        from the two small spectra instead of one on X u Y."""
        ex, ey = self.exp(x, t), self.exp(y, t)
        if ex.support[-1] >= ey.support[0]:
            raise GeometryError(f"{ex.support} must lie entirely left of {ey.support}")
        return LocalOperator(
            ex.support + ey.support, np.kron(ex.matrix, ey.matrix), self.ia.local_dim
        )

    def gibbs(self, region: Sequence[int]) -> GibbsEnsemble:
        region = _region(region)

        def build():
            f, v = self._exp_spectrum(region, -1.0)
            z = float(f.sum())
            return GibbsEnsemble(region, z, f / z, v, self.ia.local_dim)

        return self.cached(("gibbs", region), build)

    def partition_function(self, region: Sequence[int]) -> float:
        """Tr e^{-H_R} from the cached spectrum."""
        return float(np.exp(-self.spectrum(region)[0]).sum())


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
    w = np.clip(w, LOG_FLOOR, None)
    return (v * np.log(w)) @ v.conj().T


def relative_entropy(rho: LocalOperator, sigma: LocalOperator) -> float:
    """Tr[rho (log rho - log sigma)] for states on the same support."""
    if rho.support != sigma.support:
        raise GeometryError("relative entropy requires matching supports")
    w = np.linalg.eigvalsh(rho.matrix)
    w = np.clip(w, LOG_FLOOR, None)
    tr_rho_log_rho = float((w * np.log(w)).sum())
    tr_rho_log_sigma = float(np.trace(rho.matrix @ _log_matrix(sigma)).real)
    return tr_rho_log_rho - tr_rho_log_sigma


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
    g = gibbs(system, regions.all_sites)
    return mutual_information_of(marginal(g, regions.ac), regions.a)


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

    Every inequality is compared in the log domain, with log Z computed from
    the spectrum shifted by its smallest eigenvalue, so neither Z nor a bound
    can overflow to inf or underflow to 0 and pass vacuously.
    """
    a = tuple(sorted(int(s) for s in a))
    b = tuple(sorted(int(s) for s in b))
    if a[-1] + 1 != b[0]:
        raise GeometryError("A and B must be adjacent intervals")
    ab = a + b
    chain = Chain.of(system)
    ia = chain.ia
    log_z = {}
    for r in (ab, a, b):
        w = chain.spectrum(r)[0]
        log_z[r] = float(-w[0] + np.log(np.exp(w[0] - w).sum()))
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
    g = gibbs(system, regions.all_sites)
    rho_ac = marginal(g, regions.ac)
    rho_a = partial_trace(rho_ac, regions.c)
    rho_c = partial_trace(rho_ac, regions.a)
    diff = rho_ac - (embed(rho_a, regions.ac) @ embed(rho_c, regions.ac))
    return FactorizationError(op_norm(diff), trace_norm(diff))
