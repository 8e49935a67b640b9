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

from .errors import EmptyIntersectionError, GeometryError
from .expansionals import _truncated_or_identity
from .gibbs import Chain, from_spectrum
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
VERDICT_ENTANGLED = "Entangled"
VERDICT_UNDETERMINED = "Undetermined"

NEGATIVITY_ZERO_TOL = 1e-12
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


def _check_cut(rho: LocalOperator, cut) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cut_a = tuple(sorted(int(s) for s in cut[0]))
    cut_c = tuple(sorted(int(s) for s in cut[1]))
    if set(cut_a) & set(cut_c) or set(cut_a) | set(cut_c) != set(rho.support):
        raise GeometryError(
            f"cut ({cut_a}, {cut_c}) does not partition support {rho.support}"
        )
    if not cut_a or not cut_c:
        raise GeometryError("both sides of the cut must be nonempty")
    return cut_a, cut_c


def negativity(rho: LocalOperator, cut) -> NegativityResult:
    """Sum of |negative eigenvalues| of the partial transpose; 0 iff PPT."""
    _, cut_c = _check_cut(rho, cut)
    w = np.linalg.eigvalsh(partial_transpose(rho, cut_c).matrix)
    return NegativityResult(float(np.abs(w[w < 0]).sum()), float(w[0]))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _rel_err(approx: LocalOperator, ref: LocalOperator) -> float:
    """Frobenius ||approx - ref|| / ||ref||, on the support of `approx`."""
    diff = approx.matrix - embed(ref, approx.support).matrix
    return float(np.linalg.norm(diff)) / max(float(np.linalg.norm(ref.matrix)), 1e-300)


@dataclass(frozen=True, eq=False)
class Certificate:
    verdict: str
    negativity: float | None = None
    min_pt_eig: float | None = None


def ball_radius(dim_a: int, dim_c: int) -> float:
    """Operator-norm radius around the identity inside which 1 + Delta stays
    separable across the cut."""
    return 1.0 / math.sqrt(dim_a * dim_c)


def ppt_is_exact(local_dim: int, n_sites: int) -> bool:
    """Whether PPT is exact across a cut of `n_sites` sites: up to 2x3 only."""
    return local_dim**n_sites <= 6


def exact_sep_test(rho: LocalOperator, cut) -> Certificate:
    """PPT as an exact separability test, valid only for 2x2 and 2x3 cuts."""
    cut_a, cut_c = _check_cut(rho, cut)
    if not ppt_is_exact(rho.local_dim, len(cut_a) + len(cut_c)):
        raise GeometryError(
            "PPT is only exact up to 2x3; use certify_marginal for larger cuts"
        )
    neg = negativity(rho, (cut_a, cut_c))
    verdict = (
        VERDICT_SEPARABLE if neg.negativity <= NEGATIVITY_ZERO_TOL else VERDICT_ENTANGLED
    )
    return Certificate(verdict, negativity=neg.negativity, min_pt_eig=neg.min_pt_eig)


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
    hood = k_neighborhood(regions, k)
    hood_set = set(hood)
    a_clip = tuple(s for s in regions.a if s in hood_set)
    c_clip = tuple(s for s in regions.c if s in hood_set)
    if not a_clip or not c_clip:
        raise EmptyIntersectionError(
            f"k={k} clips A or C to nothing inside the neighbourhood"
        )

    def build():
        d = chain.ia.local_dim
        rho_ac = chain.marginal(hood, a_clip + c_clip)
        exp_a = chain.exp(a_clip, TELESCOPE_S)
        exp_c = chain.exp(c_clip, TELESCOPE_S)
        tilde_a = exp_a @ partial_trace(rho_ac, c_clip) @ exp_a
        tilde_c = exp_c @ partial_trace(rho_ac, a_clip) @ exp_c
        # |B| >= range, so no term couples A and C: H_AC = H_A + H_C
        sandwich = kron(exp_a, exp_c)
        tilde_ac = sandwich @ rho_ac @ sandwich
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

    return chain.cached(("core", regions, k), build)


# ---------------------------------------------------------------------------
# Tail terms and the telescoping identity
# ---------------------------------------------------------------------------

def _traced_interface_product(
    chain: Chain, regions: RegionsABC, kk: int
) -> LocalOperator:
    """tr_B[rho^B F_kk], where F_kk = M^dag M, M = E_C E_A, is the four-factor
    product of kk-truncated interface operators at s = 1/2.

    F_kk acts on the kk-neighbourhood of B only, so the product is computed
    there (at least one site beyond B on each side) and callers embed it.
    Under tr_B, rho^B splits into (rho^B)^{1/2} on each side, so the product
    is the Gram tr_B[N^dag N] of N = M (1 (x) (rho^B)^{1/2} (x) 1): Hermitian
    PSD by construction, from one matmul of neighbourhood size.
    """

    def build():
        d = chain.ia.local_dim
        hood = k_neighborhood(regions, max(kk, 1))
        left = tuple(t for t in hood if t < regions.b[0])
        right = tuple(t for t in hood if t > regions.b[-1])
        d_l, d_b, d_r = (d ** len(part) for part in (left, regions.b, right))
        ea = _truncated_or_identity(chain, regions, "A:B", kk, TELESCOPE_S)
        ec = _truncated_or_identity(chain, regions, "AB:C", kk, TELESCOPE_S)
        ea = embed(ea, left + regions.b).matrix
        ec = embed(ec, hood).matrix
        g_b = chain.gibbs(regions.b)
        root_b = from_spectrum(np.sqrt(g_b.p), g_b.v)
        # E_A (1 (x) (rho^B)^{1/2}); the B legs are the last of E_A's columns
        ea_root = (ea.reshape(-1, d_b) @ root_b).reshape(ea.shape)
        # N = E_C (ea_root (x) 1), computed with rows (row of E_C, right leg)
        # and columns (left, B), so N comes out with legs (row, right, left, B)
        dim, d_lb = ec.shape[0], d_l * d_b
        n = ec.reshape(dim, d_lb, d_r).transpose(0, 2, 1).reshape(-1, d_lb) @ ea_root
        # contract rows and B: the Gram of the rows (left, right)
        k = n.reshape(dim, d_r, d_l, d_b).transpose(2, 1, 0, 3).reshape(d_l * d_r, -1)
        del n  # k is a copy; dropping N first keeps the peak at two such arrays
        return LocalOperator(left + right, k.conj() @ k.T, d)

    return chain.cached(("traced", regions, kk), build)


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
    """Difference of traced interface products between radii k+1 and k."""
    if k < 0:
        raise GeometryError("k must be nonnegative")
    chain = Chain.of(system)

    def build():
        out_support = tuple(
            t for t in k_neighborhood(regions, k + 1) if t not in set(regions.b)
        )
        if k >= max(len(regions.a), len(regions.c)):
            return TailTerm(k, zero(out_support, chain.ia.local_dim), 0.0)
        upper = _traced_interface_product(chain, regions, k + 1)
        lower = _traced_interface_product(chain, regions, k)
        op = upper - embed(lower, out_support)
        return TailTerm(k, op, op_norm(op))

    return chain.cached(("tail", regions, k), build)


@dataclass(frozen=True, eq=False)
class _Telescope:
    """Both sides of the telescoping identity at radius k0, on A u C.

    lhs = (Z_ABC / Z_B) e^{H_AC/2} rho_AC e^{H_AC/2} equals the traced
    interface product at k0 plus the tails k0..max(|A|,|C|)-1, and that
    product equals its closed form (Z_{B_k0} / Z_B) rho~_AC, read from the
    truncated Gibbs state.
    """

    tails: tuple[TailTerm, ...]
    z_ratio: float
    closed_form: LocalOperator
    lhs: LocalOperator

    def plus_tails(self, head: LocalOperator) -> LocalOperator:
        for t in self.tails:
            head = head + embed(t.op, self.lhs.support)
        return head


def _telescope(chain: Chain, regions: RegionsABC, k0: int) -> _Telescope:
    def build():
        kmax = max(len(regions.a), len(regions.c))
        tails = tuple(tail_term(chain, regions, k) for k in range(k0, kmax))
        # Z_R / Z_B from log Z, so that neither Z may overflow
        log_z = chain.log_partition_function
        ratio, scale = (math.exp(log_z(r) - log_z(regions.b))
                        for r in (k_neighborhood(regions, k0), regions.all_sites))
        core = decompose_truncated_marginal(chain, regions, k0)
        # |B| >= range, so no term couples A and C: H_AC = H_A + H_C
        sandwich = kron(chain.exp(regions.a, TELESCOPE_S), chain.exp(regions.c, TELESCOPE_S))
        lhs = scale * (sandwich @ chain.marginal(regions.all_sites, regions.ac) @ sandwich)
        return _Telescope(tails, ratio, ratio * embed(core.tilde_ac, regions.ac), lhs)

    return chain.cached(("telescope", regions, k0), build)


@dataclass(frozen=True)
class TelescopeReport:
    k0: int
    identity_rel_err: float
    k0_term_rel_err: float
    tail_norms: tuple[float, ...]


def telescope_verify(
    system: Interaction | Chain,
    regions: RegionsABC,
    k0: int,
) -> TelescopeReport:
    """Check the telescoping split of the conjugated marginal numerically.

    Verifies (a) that the full sandwiched marginal equals the k0 traced
    term plus the finite tail sum, and (b) that the traced k0 term equals
    its partition-ratio closed form.
    """
    chain = Chain.of(system)
    if len(regions.b) < chain.ia.interaction_range:
        raise GeometryError("|B| must be at least the interaction range")
    if k0 < 1:
        raise GeometryError("k0 must be >= 1")
    tel = _telescope(chain, regions, k0)
    k0_term = embed(_traced_interface_product(chain, regions, k0), regions.ac)
    return TelescopeReport(
        k0,
        _rel_err(tel.plus_tails(k0_term), tel.lhs),
        _rel_err(k0_term, tel.closed_form),
        tuple(t.norm for t in tel.tails),
    )


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
    d = chain.ia.local_dim
    core = decompose_truncated_marginal(chain, regions, k0)
    tel = _telescope(chain, regions, k0)
    identity_mass = tel.z_ratio * core.gamma

    per_k = []
    for t in tel.tails:
        budget_k = identity_mass * 2.0 ** (-(t.k - k0 + 1))
        dim_a = d ** min(t.k + 1, len(regions.a))
        dim_c = d ** min(t.k + 1, len(regions.c))
        margin = budget_k * ball_radius(dim_a, dim_c) - t.norm
        per_k.append(TailCheck(t.k, t.norm, budget_k, margin))
    rel_err = _rel_err(tel.plus_tails(tel.closed_form), tel.lhs)

    ok = (
        core.ball_ok
        and all(c.ball_margin >= 0 for c in per_k)
        and rel_err <= RECONSTRUCTION_TOL
    )

    return DecompositionReport(
        verdict=VERDICT_SEPARABLE if ok else VERDICT_UNDETERMINED,
        k0=k0,
        gamma_k0=core.gamma,
        z_ratio=tel.z_ratio,
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
    interface operator and tail term is computed once.
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
