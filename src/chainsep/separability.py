"""Entanglement tests and proof-carrying separability certificates.

The central object is an explicit decomposition of the conjugated marginal
e^{H_AC/2} rho_AC e^{H_AC/2} into PSD product terms, an identity component,
and superexponentially small tail terms whose smallness keeps the identity
component separable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyIntersectionError, FloatRangeError, GeometryError
from .gibbs import Chain
from .linalg import (
    LocalOperator,
    embed,
    identity,
    is_psd,
    kron,
    min_eig,
    op_norm,
    partial_trace,
    partial_transpose,
    zero,
)
from .model import Interaction, RegionsABC, k_neighborhood

VERDICT_SEPARABLE = "SeparableByConstruction"
VERDICT_UNDETERMINED = "Undetermined"

RECONSTRUCTION_TOL = 1e-9
# conjugating rho_AC by e^{sH_AC} telescopes into a core term plus tails at
# s = 1/2 only, so the whole certification pipeline works there
TELESCOPE_S = 0.5


# ---------------------------------------------------------------------------
# PPT / negativity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegativityResult:
    negativity: float
    min_pt_eig: float


def negativity(rho: LocalOperator, cut) -> NegativityResult:
    """Sum of |negative eigenvalues| of the partial transpose; 0 iff PPT."""
    cut_a = tuple(sorted(int(s) for s in cut[0]))
    cut_c = tuple(sorted(int(s) for s in cut[1]))
    if set(cut_a) & set(cut_c) or set(cut_a) | set(cut_c) != set(rho.support):
        raise GeometryError(
            f"cut ({cut_a}, {cut_c}) does not partition support {rho.support}"
        )
    if not cut_a or not cut_c:
        raise GeometryError("both sides of the cut must be nonempty")
    w = partial_transpose(rho, cut_c).eigenvalues
    return NegativityResult(float(np.abs(w[w < 0]).sum()), float(w[0]))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _rel_err(approx: LocalOperator, ref: LocalOperator) -> float:
    """Frobenius ||approx - ref|| / ||ref||, on the support of `approx`."""
    diff = approx.matrix - embed(ref, approx.support).matrix
    return float(np.linalg.norm(diff)) / max(float(np.linalg.norm(ref.matrix)), 1e-300)


def ball_radius(dim_a: int, dim_c: int) -> float:
    """Operator-norm radius around the identity inside which 1 + Delta stays
    separable across the cut."""
    return 1.0 / math.sqrt(dim_a * dim_c)


def ppt_is_exact(local_dim: int, n_sites: int) -> bool:
    """Whether PPT is exact across a cut of `n_sites` sites: up to 2x3 only."""
    return local_dim**n_sites <= 6


# ---------------------------------------------------------------------------
# Constructive decomposition of the conjugated truncated marginal
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoreDecomposition:
    """Split of rho~_AC = e^{H_AC/2} rho_AC e^{H_AC/2} on the k-neighbourhood
    of B, with a = min_eig_a and c = min_eig_c the least eigenvalues of the
    conjugated one-side marginals rho~_A and rho~_C:

        rho~_AC = F_A (x) F_C + a 1 (x) F_C + c F_A (x) 1 + 2 gamma 1 + Delta,

    F_A = rho~_A - a 1 and F_C = rho~_C - c 1 (both PSD), gamma = a c / 2 and
    Delta = rho~_AC - rho~_A (x) rho~_C.  The product terms are separable, and
    so is gamma 1 + Delta when ||Delta|| / gamma is within the ball radius
    (`ball_ok`).
    """

    k: int
    cut: tuple[tuple[int, ...], tuple[int, ...]]
    gamma: float
    min_eig_a: float
    min_eig_c: float
    tilde_ac: LocalOperator
    delta: LocalOperator
    delta_norm: float
    ball_ok: bool


def decompose_truncated_marginal(
    system: Interaction | Chain,
    regions: RegionsABC,
    k: int,
) -> CoreDecomposition:
    """Constructive separable + identity split on the k-neighbourhood of B.

    The identity budget is gamma(k) = (min eig of the conjugated A-marginal)
    x (min eig of the conjugated C-marginal) / 2, with per-side shifts equal
    to the measured minima, so all shifted factors are PSD by construction.
    """
    chain = Chain.of(system)
    if len(regions.b) < chain.ia.interaction_range:
        raise GeometryError("|B| must be at least the interaction range")
    a_clip, c_clip = regions.clip(k)
    if not a_clip or not c_clip:
        raise EmptyIntersectionError(
            f"k={k} clips A or C to nothing inside the neighbourhood"
        )

    d = chain.ia.local_dim
    rho_ac = chain.marginal(k_neighborhood(regions, k), a_clip + c_clip)
    exp_a = chain.exp(a_clip, TELESCOPE_S)
    exp_c = chain.exp(c_clip, TELESCOPE_S)
    tilde_a = exp_a @ partial_trace(rho_ac, c_clip) @ exp_a
    tilde_c = exp_c @ partial_trace(rho_ac, a_clip) @ exp_c
    tilde_ac = _closed_form(chain, regions, k)[1]
    delta = tilde_ac - kron(tilde_a, tilde_c)

    a_min = min_eig(tilde_a)
    c_min = min_eig(tilde_c)
    if a_min <= 0 or c_min <= 0:
        raise RuntimeError(
            "conjugated marginals should be positive definite; got "
            f"min eigs {a_min}, {c_min}"
        )
    gamma = a_min * c_min / 2.0
    fa = tilde_a - a_min * identity(a_clip, d)
    fc = tilde_c - c_min * identity(c_clip, d)
    if not (is_psd(fa) and is_psd(fc)):
        raise RuntimeError(
            "shifted factors are not PSD although the shifts equal the "
            "measured minimal eigenvalues; this indicates a bug"
        )
    delta_norm = op_norm(delta)
    radius = ball_radius(d ** len(a_clip), d ** len(c_clip))
    return CoreDecomposition(
        k, (a_clip, c_clip), gamma, a_min, c_min, tilde_ac, delta, delta_norm,
        ball_ok=delta_norm / gamma <= radius * (1 + 1e-12),
    )


# ---------------------------------------------------------------------------
# Tail terms and the telescoping identity
# ---------------------------------------------------------------------------

def _closed_form(chain: Chain, regions: RegionsABC, k: int) -> tuple[float, LocalOperator]:
    """(Z_{N_k} / Z_B, S_k rho_{a_k c_k} S_k), whose product F_k is the traced
    interface product at radius k at s = 1/2.

    N_k = a_k + B + c_k is the k-neighbourhood of B, rho_{a_k c_k} the marginal
    of its Gibbs state and S_k = e^{H_{a_k}/2} (x) e^{H_{c_k}/2}.  At k = 0, A
    and C clip to nothing and F_0 = 1, given on a_1 + c_1.
    """

    def build():
        if not k:
            return 1.0, identity(sum(regions.clip(1), ()), chain.ia.local_dim)
        a_k, c_k = regions.clip(k)
        hood = k_neighborhood(regions, k)
        rho = chain.marginal(hood, a_k + c_k)  # first, so that log Z reads its eigenvalues
        # Z_{N_k} / Z_B from log Z, so that neither Z may overflow
        log_z = chain.log_partition_function
        log_ratio = log_z(hood) - log_z(regions.b)
        try:
            ratio = math.exp(log_ratio)
        except OverflowError:
            raise FloatRangeError(f"Z_N / Z_B = e^{log_ratio:.6g} at k={k} is beyond the "
                                  "float range") from None
        # |B| >= range, so no term couples A and C: H_AC = H_A + H_C
        sandwich = kron(chain.exp(a_k, TELESCOPE_S), chain.exp(c_k, TELESCOPE_S))
        return ratio, sandwich @ rho @ sandwich

    return chain.cached(("closed form", regions, k), build)


@dataclass(frozen=True, eq=False)
class TailTerm:
    k: int
    op: LocalOperator
    norm: float


def tail_term(
    system: Interaction | Chain,
    regions: RegionsABC,
    k: int,
) -> TailTerm:
    """T_k = F_{k+1} - F_k, the difference of the traced interface products
    at radii k+1 and k, each read in closed form."""
    if k < 0:
        raise GeometryError("k must be nonnegative")
    chain = Chain.of(system)

    def build():
        a_next, c_next = regions.clip(k + 1)
        out_support = a_next + c_next
        if k >= max(len(regions.a), len(regions.c)):
            return TailTerm(k, zero(out_support, chain.ia.local_dim), 0.0)
        upper, lower = (ratio * op for ratio, op in
                        (_closed_form(chain, regions, kk) for kk in (k + 1, k)))
        op = upper - embed(lower, out_support)
        return TailTerm(k, op, op_norm(op))

    return chain.cached(("tail", regions, k), build)


# ---------------------------------------------------------------------------
# The full certification pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCheck:
    k: int
    tail_norm: float
    identity_budget: float
    ball_margin: float


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    verdict: str
    k0: int
    gamma_k0: float
    z_ratio: float
    reconstruction_rel_err: float
    per_k: tuple[TailCheck, ...]
    core: CoreDecomposition
    negativity_cross_check: float
    attempted_k0: tuple[int, ...] = ()


def _attempt_certificate(
    chain: Chain, regions: RegionsABC, k0: int, neg: float
) -> DecompositionReport:
    """The verdict at radius k0.  Its telescope check on A u C: F_kmax, kmax =
    max(|A|,|C|), is (Z_ABC / Z_B) e^{H_AC/2} rho_AC e^{H_AC/2}, and equals
    F_k0 = (Z_{B_k0} / Z_B) rho~_AC of the core plus the tails k0..kmax-1."""
    d = chain.ia.local_dim
    core = decompose_truncated_marginal(chain, regions, k0)
    kmax = max(len(regions.a), len(regions.c))
    tails = [tail_term(chain, regions, k) for k in range(k0, kmax)]
    ratio = _closed_form(chain, regions, k0)[0]
    scale, top = _closed_form(chain, regions, kmax)
    identity_mass = ratio * core.gamma

    per_k = []
    for t in tails:
        budget_k = identity_mass * 2.0 ** (-(t.k - k0 + 1))
        dim_a = d ** min(t.k + 1, len(regions.a))
        dim_c = d ** min(t.k + 1, len(regions.c))
        margin = budget_k * ball_radius(dim_a, dim_c) - t.norm
        per_k.append(TailCheck(t.k, t.norm, budget_k, margin))
    f_k0 = ratio * embed(core.tilde_ac, regions.ac)
    rel_err = _rel_err(sum((embed(t.op, regions.ac) for t in tails), f_k0), scale * top)

    ok = (
        core.ball_ok
        and all(c.ball_margin >= 0 for c in per_k)
        and rel_err <= RECONSTRUCTION_TOL
    )

    return DecompositionReport(
        verdict=VERDICT_SEPARABLE if ok else VERDICT_UNDETERMINED,
        k0=k0,
        gamma_k0=core.gamma,
        z_ratio=ratio,
        reconstruction_rel_err=rel_err,
        per_k=tuple(per_k),
        core=core,
        negativity_cross_check=neg,
    )


def certify_marginal(
    system: Interaction | Chain,
    regions: RegionsABC,
    k0: int | None = None,
) -> DecompositionReport:
    """Run the full separability pipeline for rho_AC across the A:C cut.

    If k0 is not given, the smallest feasible k0 in {1..max(|A|,|C|)} is
    searched; the report of the last attempt is returned when none passes.
    All attempts share one spectral context, so every region Hamiltonian,
    closed form and tail term is computed once.
    """
    chain = Chain.of(system)
    if len(regions.b) < chain.ia.interaction_range:
        raise GeometryError("|B| must be at least the interaction range")
    kmax = max(len(regions.a), len(regions.c))
    candidates = [k0] if k0 is not None else list(range(1, kmax + 1))
    neg = negativity(chain.marginal(regions.all_sites, regions.ac), (regions.a, regions.c))
    attempted = []
    report = None
    for cand in candidates:
        report = _attempt_certificate(chain, regions, cand, neg.negativity)
        attempted.append(cand)
        if report.verdict == VERDICT_SEPARABLE:
            break
    return replace(report, attempted_k0=tuple(attempted))
