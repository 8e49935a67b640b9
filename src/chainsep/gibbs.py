"""Gibbs states, partition functions, marginals, and correlation checks."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import BudgetError, GeometryError
from .linalg import (
    LocalOperator,
    embed,
    min_eig,
    op_norm,
    partial_trace,
    trace_norm,
)
from .model import Interaction, RegionsABC, hamiltonian

DEFAULT_BUDGET = 4096
LOG_FLOOR = 1e-300


def _check_budget(ia: Interaction, region: Sequence[int], budget: int) -> None:
    dim = ia.local_dim ** len(tuple(region))
    if dim > budget:
        raise BudgetError(dim, budget)


def _region(region: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(s) for s in region)))


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """A normalized thermal state exp(-H)/Z on a region, with Z alongside."""

    interaction: Interaction
    region: tuple[int, ...]
    z: float
    rho: LocalOperator
    h: LocalOperator


class Chain:
    """Spectral context of one interaction under one dense-size budget.

    Each region Hamiltonian is assembled, checked for Hermiticity and
    diagonalized at most once; exponentials e^{tH_R} for any t, Gibbs states
    and partition functions are served from that one spectrum.  Everything
    computed is kept until the context is dropped, so a context should live
    for one computation: each public entry point builds its own.
    """

    def __init__(self, ia: Interaction, budget: int = DEFAULT_BUDGET):
        self.ia = ia
        self.budget = budget
        self._memo: dict = {}

    def cached(self, key, build: Callable[[], Any]):
        """The value stored under `key`, computed by `build()` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def hamiltonian(self, region: Sequence[int]) -> LocalOperator:
        region = _region(region)
        _check_budget(self.ia, region, self.budget)
        return self.cached(("H", region), lambda: hamiltonian(self.ia, region))

    def spectrum(self, region: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of H_R."""
        region = _region(region)

        def build():
            h = self.hamiltonian(region)
            if not h.is_hermitian():
                raise ValueError(f"the Hamiltonian of {region} is not Hermitian")
            return np.linalg.eigh(h.matrix)

        return self.cached(("eigh", region), build)

    def exp(self, region: Sequence[int], t: complex) -> LocalOperator:
        """e^{t H_R}; complex t is fine."""
        region = _region(region)
        w, v = self.spectrum(region)
        f = np.exp(t * w)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"e^(tH) overflows on the spectrum of {region} at t={t}")
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
            boltz = self.exp(region, -1.0)
            z = float(boltz.trace().real)
            rho = LocalOperator(region, boltz.matrix / z, self.ia.local_dim)
            if abs(rho.trace().real - 1.0) > 1e-12:
                raise RuntimeError("Gibbs state failed its normalization check")
            return GibbsEnsemble(self.ia, region, z, rho, self.hamiltonian(region))

        return self.cached(("gibbs", region), build)

    def partition_function(self, region: Sequence[int]) -> float:
        """Tr e^{-H_R} from the cached spectrum."""
        return float(np.exp(-self.spectrum(region)[0]).sum())


def partition_function(
    ia: Interaction, region: Sequence[int], budget: int = DEFAULT_BUDGET
) -> float:
    """Tr e^{-H_R} from the eigenvalues alone; no eigenvectors are computed."""
    _check_budget(ia, region, budget)
    w = np.linalg.eigvalsh(hamiltonian(ia, region).matrix)
    return float(np.exp(-w).sum())


def gibbs(
    ia: Interaction, region: Sequence[int], budget: int = DEFAULT_BUDGET
) -> GibbsEnsemble:
    return Chain(ia, budget).gibbs(region)


def marginal(g: GibbsEnsemble, x: Sequence[int]) -> LocalOperator:
    x = tuple(sorted(set(int(s) for s in x)))
    if not set(x) <= set(g.region):
        raise GeometryError(f"{x} is not a subregion of {g.region}")
    if x == g.region:
        return g.rho
    return partial_trace(g.rho, tuple(s for s in g.region if s not in set(x)))


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


def mutual_information(
    ia: Interaction, regions: RegionsABC, budget: int = DEFAULT_BUDGET
) -> float:
    g = gibbs(ia, regions.all_sites, budget)
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


def check_partition_ratios(
    ia: Interaction,
    a: Sequence[int],
    b: Sequence[int],
    budget: int = DEFAULT_BUDGET,
    slack: float = 1e-9,
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
    _check_budget(ia, ab, budget)
    h = {r: hamiltonian(ia, r) for r in (a, b, ab)}
    log_z = {}
    for r, h_r in h.items():
        w = np.linalg.eigvalsh(h_r.matrix)
        log_z[r] = float(-w[0] + np.log(np.exp(w[0] - w).sum()))
    lo, hi = np.log1p(-slack), np.log1p(slack)

    gap = op_norm(h[ab] - embed(h[a] + h[b], ab))
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
    ia: Interaction, regions: RegionsABC, budget: int = DEFAULT_BUDGET
) -> FactorizationError:
    """Norms of rho_AC - rho_A x rho_C on the full Gibbs state of ABC."""
    g = gibbs(ia, regions.all_sites, budget)
    rho_ac = marginal(g, regions.ac)
    rho_a = marginal(g, regions.a)
    rho_c = marginal(g, regions.c)
    diff = rho_ac - (embed(rho_a, regions.ac) @ embed(rho_c, regions.ac))
    return FactorizationError(op_norm(diff), trace_norm(diff))


def correlation(
    ia: Interaction,
    regions: RegionsABC,
    obs_a: LocalOperator,
    obs_c: LocalOperator,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Connected correlator of observables supported in A and C."""
    if not set(obs_a.support) <= set(regions.a):
        raise GeometryError("obs_a must be supported in A")
    if not set(obs_c.support) <= set(regions.c):
        raise GeometryError("obs_c must be supported in C")
    g = gibbs(ia, regions.all_sites, budget)
    rho_ac = marginal(g, regions.ac)
    rho_a = marginal(g, regions.a)
    rho_c = marginal(g, regions.c)
    joint = embed(obs_a, regions.ac) @ embed(obs_c, regions.ac)
    first = float(np.trace(joint.matrix @ rho_ac.matrix).real)
    second = float(
        np.trace(embed(obs_a, regions.a).matrix @ rho_a.matrix).real
        * np.trace(embed(obs_c, regions.c).matrix @ rho_c.matrix).real
    )
    return first - second


@dataclass(frozen=True)
class MarginalFloorReport:
    inv_norm: float
    bound: float
    g_emp: float
    ok: bool


def marginal_inverse_norm(
    ia: Interaction, regions: RegionsABC, budget: int = DEFAULT_BUDGET
) -> MarginalFloorReport:
    """Check ||rho_B^{-1}|| against the expansional-derived exponential bound.

    The uniform constant is measured on this instance from the two
    expansionals at s = -1/2 that appear in the derivation of the bound.
    """
    from .expansionals import _expansional  # late import: avoids a module cycle

    chain = Chain(ia, budget)
    g = chain.gibbs(regions.all_sites)
    rho_b = marginal(g, regions.b)
    inv_norm = 1.0 / min_eig(rho_b)

    rep_ab = _expansional(chain, regions.a, regions.b, -0.5)
    rep_abc = _expansional(chain, regions.a + regions.b, regions.c, -0.5)
    g_emp = max(
        1.0, rep_ab.norm_e, rep_ab.norm_e_inv, rep_abc.norm_e, rep_abc.norm_e_inv
    )
    d, j, r = ia.local_dim, ia.strength, ia.interaction_range
    bound = g_emp**4 * np.exp(2 * r * j) * np.exp((2 * j + np.log(d)) * len(regions.b))
    return MarginalFloorReport(inv_norm, float(bound), g_emp, inv_norm <= bound * (1 + 1e-9))
