import gc
import importlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    BudgetError,
    Chain,
    ExpansionalReport,
    GeometryError,
    LocalOperator,
    RegionsABC,
    builtin_models,
    ball_radius,
    check_lemmas,
    certify_marginal,
    decompose_truncated_marginal,
    embed,
    exact_sep_test,
    hamiltonian,
    identity,
    negativity,
    op_norm,
    partial_trace,
    tail_norm_bound,
    tail_term,
    telescope_verify,
)
from chainsep.expansionals import _truncated_or_identity
from chainsep.gibbs import _region
from chainsep.model import k_neighborhood
from chainsep.separability import (
    TELESCOPE_S,
    VERDICT_ENTANGLED,
    VERDICT_SEPARABLE,
    VERDICT_UNDETERMINED,
    _traced_interface_product,
)
from helpers import (
    conjugated_marginals_oracle,
    core_split_rel_err,
    partial_transpose_oracle,
    random_hermitian,
    random_state,
    record_eigh,
)


def _bell():
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    return LocalOperator((0, 1), np.outer(v, v))


def test_negativity_bell():
    res = negativity(_bell(), ((0,), (1,)))
    assert res.negativity == pytest.approx(0.5)
    assert res.min_pt_eig == pytest.approx(-0.5)


def test_negativity_product_state_zero():
    rho = LocalOperator((0, 1), np.diag([0.4, 0.1, 0.4, 0.1]))
    res = negativity(rho, ((0,), (1,)))
    assert res.negativity == pytest.approx(0.0, abs=1e-15)
    assert res.min_pt_eig >= 0


def test_negativity_of_ppt_state_is_plus_zero():
    # no negative eigenvalue to sum: the result is +0.0, never -0.0
    rho = LocalOperator((0, 1), np.diag([0.4, 0.1, 0.4, 0.1]))
    assert math.copysign(1.0, negativity(rho, ((0,), (1,))).negativity) == 1.0


def test_negativity_cut_validation():
    with pytest.raises(GeometryError):
        negativity(_bell(), ((0,), ()))
    with pytest.raises(GeometryError):
        negativity(_bell(), ((0,), (2,)))


def test_ball_radius_values():
    assert ball_radius(2, 2) == pytest.approx(0.5)
    assert ball_radius(2, 3) == pytest.approx(1 / np.sqrt(6))
    assert ball_radius(4, 4) == pytest.approx(0.25)


def test_exact_sep_test_verdicts():
    assert exact_sep_test(_bell(), ((0,), (1,))).verdict == VERDICT_ENTANGLED
    sep = LocalOperator((0, 1), np.eye(4) / 4)
    assert exact_sep_test(sep, ((0,), (1,))).verdict == VERDICT_SEPARABLE
    big = LocalOperator((0, 1, 2), np.eye(8) / 8)
    with pytest.raises(GeometryError):
        exact_sep_test(big, ((0, 1), (2,)))


def test_core_decomposition_tfi():
    ia = builtin_models("tfi", {"sites": 6})
    regions = RegionsABC.from_sizes(1, 4, 1)
    core = decompose_truncated_marginal(ia, regions, 1)
    assert core.gamma > 0
    assert core.min_eig_a > 0 and core.min_eig_c > 0
    assert core.cut == ((0,), (5,)) and core.tilde_ac.support == (0, 5)
    # the three product terms plus 2 gamma * identity plus delta rebuild the
    # conjugated truncated marginal of the oracle
    assert core_split_rel_err(core, *conjugated_marginals_oracle(ia, regions, 1)) <= 1e-9


def test_core_decomposition_ball_controls_separability():
    ia = builtin_models("tfi", {"sites": 7})
    regions = RegionsABC.from_sizes(1, 5, 1)
    core = decompose_truncated_marginal(ia, regions, 1)
    if core.ball_ok:
        # then the normalized delta part sits in the separable ball, and the
        # whole conjugated marginal is separable: PPT must agree
        tr = core.tilde_ac.trace().real
        res = negativity(core.tilde_ac * (1 / tr), core.cut)
        assert res.negativity <= 1e-10


def test_tail_term_vanishes_beyond_kmax():
    ia = builtin_models("tfi", {"sites": 7})
    regions = RegionsABC.from_sizes(2, 3, 2)
    t = tail_term(ia, regions, 2)  # k >= max(|A|,|C|)
    assert t.norm == 0.0
    assert np.abs(t.op.matrix).max() == 0.0


def test_tail_norm_bound_formula():
    assert tail_norm_bound(2.0, 0, 1) == pytest.approx(4 * 8 * 1.0)
    assert tail_norm_bound(2.0, 3, 1) == pytest.approx(4 * 8 * (8 / 24))


def test_tail_norms_below_factorial_budget():
    ia = builtin_models("tfi", {"sites": 8})
    regions = RegionsABC.from_sizes(2, 4, 2)
    from chainsep import covering_bound

    g_emp = covering_bound(ia, regions, [1, 2, 3], 0.5)
    for k in (1, 2):
        t = tail_term(ia, regions, k)
        assert t.norm <= tail_norm_bound(g_emp, k, ia.interaction_range) + 1e-12


def test_telescope_identity_tfi():
    ia = builtin_models("tfi", {"sites": 8})
    regions = RegionsABC.from_sizes(2, 4, 2)
    rep = telescope_verify(ia, regions, 1)
    assert rep.identity_rel_err <= 1e-10
    assert rep.k0_term_rel_err <= 1e-10
    assert len(rep.tail_norms) == 1  # kmax=2, k0=1


def test_telescope_identity_random_model():
    ia = builtin_models(
        "random", {"sites": 8, "range": 2, "strength": 2.0, "seed": 17}
    )
    rep = telescope_verify(ia, RegionsABC.from_sizes(2, 4, 2), 1)
    assert rep.identity_rel_err <= 1e-10
    assert rep.k0_term_rel_err <= 1e-10


def _four_factor_traced_product(chain, regions, kk):
    """tr_B[(rho_B (x) 1) E_A^dag E_C^dag E_C E_A] by the four products."""
    hood = k_neighborhood(regions, max(kk, 1))
    ea = embed(_truncated_or_identity(chain, regions, "A:B", kk, TELESCOPE_S), hood)
    ec = embed(_truncated_or_identity(chain, regions, "AB:C", kk, TELESCOPE_S), hood)
    f = ea.dagger() @ ec.dagger() @ ec @ ea
    return partial_trace(embed(chain.gibbs(regions.b).rho, hood) @ f, regions.b)


@pytest.mark.parametrize("sizes", [(2, 4, 2), (3, 3, 2)])
@pytest.mark.parametrize("r", [1, 2])
def test_traced_interface_product_matches_four_factor_formula(sizes, r):
    ia = builtin_models("random", {"sites": sum(sizes), "range": r, "seed": 7})
    regions = RegionsABC.from_sizes(*sizes)
    chain = Chain(ia)
    for kk in range(max(sizes[0], sizes[2]) + 2):  # kk = 0 clips both to the identity
        got = _traced_interface_product(chain, regions, kk)
        want = _four_factor_traced_product(chain, regions, kk)
        assert got.support == want.support
        assert got.is_hermitian()
        err = np.linalg.norm(got.matrix - want.matrix) / np.linalg.norm(want.matrix)
        assert err < 1e-12, (kk, err)


def test_certify_marginal_tfi_single_site_edges():
    ia = builtin_models("tfi", {"sites": 7})
    rep = certify_marginal(ia, RegionsABC.from_sizes(1, 5, 1))
    assert rep.verdict == VERDICT_SEPARABLE
    assert rep.k0 == 1
    assert rep.gamma_k0 > 0
    assert rep.reconstruction_rel_err <= 1e-9
    assert rep.negativity_cross_check <= 1e-10
    assert rep.per_k == ()  # kmax == 1 means no tail terms at all


def test_certify_marginal_zero_interaction():
    ia = builtin_models("zero", {"sites": 6})
    rep = certify_marginal(ia, RegionsABC.from_sizes(2, 2, 2))
    assert rep.verdict == VERDICT_SEPARABLE


def test_certify_marginal_small_gap_is_undetermined_not_wrong():
    # edges too close: pipeline must refuse to certify, not mislabel
    ia = builtin_models("tfi", {"sites": 6})
    rep = certify_marginal(ia, RegionsABC.from_sizes(2, 2, 2))
    assert rep.verdict in (VERDICT_SEPARABLE, VERDICT_UNDETERMINED)
    if rep.verdict == VERDICT_UNDETERMINED:
        assert rep.attempted_k0 == (1, 2)


def test_certify_diagonalizes_each_region_once(monkeypatch):
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    inputs = record_eigh(monkeypatch)
    certify_marginal(ia, RegionsABC.from_sizes(2, 3, 2))
    assert len(inputs) == len(set(inputs))
    assert [shape[0] for shape, _, _ in inputs].count(2**7) == 1


def test_certify_where_z_overflows():
    """classical_ising at coupling 80 on 1|8|1 has log Z = 720.7, past the
    709.8 where Z overflows; the Z ratios come from differences of log Z."""
    mpmath = pytest.importorskip("mpmath")
    ia = builtin_models("classical_ising", {"sites": 10, "coupling": 80.0})
    regions = RegionsABC.from_sizes(1, 8, 1)
    chain = Chain(ia)
    rep = certify_marginal(chain, regions)
    assert chain.log_partition_function(regions.all_sites) > math.log(np.finfo(float).max)
    assert rep.reconstruction_rel_err <= 1e-9
    assert rep.negativity_cross_check <= 1e-12

    def log_z(region):
        w = np.linalg.eigvalsh(hamiltonian(ia, region).matrix)
        return mpmath.log(mpmath.fsum(mpmath.exp(-mpmath.mpf(float(x))) for x in w))

    with mpmath.workdps(50):
        want = mpmath.exp(log_z(k_neighborhood(regions, rep.k0)) - log_z(regions.b))
        assert math.isfinite(rep.z_ratio)
        assert abs(rep.z_ratio - want) <= 1e-12 * want


def test_each_marginal_is_formed_once_per_chain(monkeypatch):
    """A Chain forms each reduced state once, whoever asks for it."""
    form = importlib.import_module("chainsep.gibbs").marginal
    seen = []

    def recording(g, x):
        seen.append((g.region, tuple(x)))
        return form(g, x)

    for name in ("gibbs", "expansionals", "separability", "cli"):
        monkeypatch.setattr(importlib.import_module(f"chainsep.{name}"), "marginal",
                            recording, raising=False)
    # on tfi 1|6|1 the neighbourhood at k0 = 1 is the whole chain
    certify_marginal(builtin_models("tfi", {"sites": 8}), RegionsABC.from_sizes(1, 6, 1))
    assert seen == [(tuple(range(8)), (0, 7))]

    seen.clear()
    rng = np.random.default_rng(0)
    regions = RegionsABC.from_sizes(2, 2, 2)
    x = LocalOperator(regions.ac, random_hermitian(rng, 16))
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 2.0, "seed": 0})
    check_lemmas(Chain(ia), regions, x)
    everything = tuple(range(6))
    assert sorted(seen) == sorted((everything, part) for part in (regions.ac, regions.a, regions.b))


def test_certify_solves_only_the_regions_its_verdict_reads(monkeypatch):
    """At 1|6|1, k0 = 1 leaves no tails: the core and the telescope need the
    spectra of A, C, B and the whole chain, and no interface operator."""
    solved = []
    spectrum = Chain.spectrum

    def recording(self, region):
        solved.append(_region(region))
        return spectrum(self, region)

    monkeypatch.setattr(Chain, "spectrum", recording)
    regions = RegionsABC.from_sizes(1, 6, 1)
    rep = certify_marginal(builtin_models("tfi", {"sites": 8}), regions)
    assert rep.verdict == VERDICT_SEPARABLE and rep.attempted_k0 == (1,)
    assert set(solved) == {regions.a, regions.c, regions.b, regions.all_sites}


def test_certify_reads_no_interface_operator_norm(monkeypatch):
    """The tails form E, but no verdict reads ||E|| or ||E^{-1}||."""

    def unread(self):
        raise AssertionError("an interface-operator norm was read")

    for name in ("norm_e", "norm_e_inv"):
        monkeypatch.setattr(ExpansionalReport, name, property(unread), raising=False)
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    chain = Chain(ia)
    rep = certify_marginal(chain, RegionsABC.from_sizes(2, 3, 2))
    assert rep.attempted_k0 == (1, 2)  # the k0 = 1 attempt has a tail, so E was formed
    formed = [v for v in chain._memo.values() if isinstance(v, ExpansionalReport)]
    assert formed and all("e" in vars(r) for r in formed)
    with pytest.raises(AssertionError, match="norm was read"):
        formed[0].norm_e


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certify_where_the_interface_gram_overflows():
    """tfi at coupling 80 on 1|8|1: the Gram behind ||E|| overflows there,
    and certify, which reads no norm, never forms it."""
    ia = builtin_models("tfi", {"sites": 10, "coupling": 80.0})
    rep = certify_marginal(ia, RegionsABC.from_sizes(1, 8, 1))
    assert rep.verdict == VERDICT_UNDETERMINED
    assert math.isfinite(rep.z_ratio)
    assert rep.negativity_cross_check == 0.0
    assert rep.reconstruction_rel_err == 0.0


def test_certify_computes_the_negativity_cross_check_once(monkeypatch):
    """Each k0 attempt reads the same rho_AC, so its negativity is computed
    once per call, and the report carries that value unchanged."""
    separability = importlib.import_module("chainsep.separability")
    calls = []

    def counting(rho, cut):
        calls.append(cut)
        return negativity(rho, cut)

    monkeypatch.setattr(separability, "negativity", counting)
    ia = builtin_models("random", {"sites": 9, "range": 2, "strength": 1.5, "seed": 1})
    regions = RegionsABC.from_sizes(2, 5, 2)
    rep = certify_marginal(ia, regions)
    assert rep.attempted_k0 == (1, 2)
    assert calls == [(regions.a, regions.c)]
    rho_ac = Chain(ia).marginal(regions.all_sites, regions.ac)
    assert rep.negativity_cross_check == negativity(rho_ac, (regions.a, regions.c)).negativity


def test_public_functions_accept_a_chain():
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 2})
    regions = RegionsABC.from_sizes(2, 3, 2)
    chain = Chain(ia)
    for fn, args in (
        (certify_marginal, ()),
        (telescope_verify, (1,)),
        (tail_term, (1,)),
        (decompose_truncated_marginal, (1,)),
    ):
        fresh, shared = fn(ia, regions, *args), fn(chain, regions, *args)
        for field in ("verdict", "k0", "attempted_k0", "identity_rel_err", "norm", "gamma"):
            assert getattr(fresh, field, None) == getattr(shared, field, None)
    # the Chain's own budget holds
    with pytest.raises(BudgetError):
        certify_marginal(Chain(ia, budget=2**6), regions)


def test_chain_keeps_no_hamiltonian(monkeypatch):
    """A Chain keeps each region's spectrum; the assembled H_R is let go."""
    gibbs_module = importlib.import_module("chainsep.gibbs")
    assemble = gibbs_module.hamiltonian
    refs = []

    def recording(ia, region):
        h = assemble(ia, region)
        refs.extend((weakref.ref(h), weakref.ref(h.matrix)))
        return h

    monkeypatch.setattr(gibbs_module, "hamiltonian", recording)
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 2})
    chain = Chain(ia)
    rep = certify_marginal(chain, RegionsABC.from_sizes(2, 3, 2))
    gc.collect()
    assert rep.verdict and refs
    assert [r() for r in refs if r() is not None] == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_negativity_matches_pt_oracle(seed):
    rng = np.random.default_rng(seed)
    rho = LocalOperator((0, 1, 2), random_state(rng, 8))
    res = negativity(rho, ((0,), (1, 2)))
    pt = partial_transpose_oracle(rho.matrix, (0, 1, 2), (0,))
    w = np.linalg.eigvalsh(pt)
    assert res.negativity == pytest.approx(float(-w[w < 0].sum()), abs=1e-12)
    assert res.min_pt_eig == pytest.approx(float(w.min()), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(1, 1), (1, 2)]))
def test_ball_members_are_ppt(seed, shape):
    na, nc = shape
    rng = np.random.default_rng(seed)
    dim = 2 ** (na + nc)
    sites = tuple(range(na + nc))
    h = random_hermitian(rng, dim)
    h = h / max(op_norm(LocalOperator(sites, h)), 1e-300)
    h = h * (0.999 * ball_radius(2**na, 2**nc))
    state = identity(sites) + LocalOperator(sites, h)
    neg = negativity(state * (1.0 / state.trace().real), (sites[:na], sites[na:]))
    assert neg.negativity <= 1e-10
