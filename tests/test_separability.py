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
    GeometryError,
    LocalOperator,
    RegionsABC,
    SeparableDecomposition,
    builtin_models,
    ball_radius,
    certify_marginal,
    decompose_truncated_marginal,
    embed,
    exact_sep_test,
    identity,
    negativity,
    op_norm,
    partial_trace,
    tail_norm_bound,
    tail_term,
    telescope_verify,
    validate_decomposition,
)
from chainsep.expansionals import _truncated_or_identity
from chainsep.model import k_neighborhood
from chainsep.separability import (
    FACTOR_PSD_TOL,
    TELESCOPE_S,
    VERDICT_ENTANGLED,
    VERDICT_SEPARABLE,
    VERDICT_UNDETERMINED,
    _traced_interface_product,
)
from helpers import partial_transpose_oracle, random_hermitian, random_state, record_eigh


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


def test_decomposition_reconstruct_and_validate():
    rng = np.random.default_rng(1)
    fa = LocalOperator((0,), random_state(rng, 2))
    fc = LocalOperator((1,), random_state(rng, 2))
    dec = SeparableDecomposition(((0,), (1,)), ((0.7, fa, fc),), 0.3)
    target = dec.reconstruct()
    chk = validate_decomposition(dec, target)
    assert chk.ok and chk.reconstruction_rel_err < 1e-14
    # the reconstruction is separable, so PPT must be clean
    tr = target.trace().real
    assert negativity(target * (1 / tr), ((0,), (1,))).negativity < 1e-12


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
    assert core.factors_psd
    assert core.reconstruction_rel_err <= 1e-9
    assert core.min_eig_a > 0 and core.min_eig_c > 0
    # the three product terms plus gamma * identity plus delta rebuild the
    # conjugated truncated marginal
    rebuilt = (
        core.gamma_terms.reconstruct()
        + core.gamma * identity(core.tilde_ac.support, 2)
        + core.delta
    )
    scale = np.linalg.norm(core.tilde_ac.matrix)
    assert np.linalg.norm(rebuilt.matrix - core.tilde_ac.matrix) / scale <= 1e-9
    assert validate_decomposition(core.gamma_terms).ok


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


def test_constants_used_reproduce_k0_closed_form():
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    rep = certify_marginal(ia, RegionsABC.from_sizes(2, 3, 2))
    c = rep.constants_used
    d, r = ia.local_dim, ia.interaction_range
    assert c["alpha"] == pytest.approx(math.log(2.0), rel=1e-15)
    assert c["alpha_prime"] == pytest.approx(math.log(2.0 * c["g_emp"] * d), rel=1e-15)
    assert c["C_prime"] == pytest.approx(max(1.0, 8.0 * d * c["g_emp"] ** 3 / c["C"]), rel=1e-15)
    k0 = r * math.e * math.exp(r * (math.log(c["C_prime"]) + c["alpha"] + c["alpha_prime"]))
    assert rep.k0_closed_form == pytest.approx(k0, rel=1e-12)


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
    assert neg.negativity <= FACTOR_PSD_TOL
