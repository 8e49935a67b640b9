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
    factorization_error,
    identity,
    negativity,
    op_norm,
    partial_trace,
    tail_norm_bound,
    tail_term,
)
from chainsep.gibbs import _region
from chainsep.model import Entries, k_neighborhood
from chainsep.separability import (
    TELESCOPE_S,
    VERDICT_SEPARABLE,
    VERDICT_UNDETERMINED,
    _closed_form,
    ppt_is_exact,
)
from helpers import (
    NEGATIVITY_ZERO_TOL,
    conjugated_marginals_oracle,
    core_split_rel_err,
    gibbs_state_oracle,
    hamiltonian,
    interface_operator,
    partial_transpose_oracle,
    random_hermitian,
    random_state,
    record_eigh,
    record_solver,
    telescope_verify,
    traced_interface_product,
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
    # PPT is exact on two qubits, not three: the Bell state is entangled, 1/4 separable
    assert ppt_is_exact(2, 2) and not ppt_is_exact(2, 3)
    assert negativity(_bell(), ((0,), (1,))).negativity > NEGATIVITY_ZERO_TOL
    sep = LocalOperator((0, 1), np.eye(4) / 4)
    assert negativity(sep, ((0,), (1,))).negativity <= NEGATIVITY_ZERO_TOL


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


def test_core_decomposition_needs_k_at_least_1():
    """k = 0 clips A and C to nothing, a broken precondition on k as a negative
    k is, and so is a certificate asked for at k0 = 0."""
    ia = builtin_models("tfi", {"sites": 6})
    regions = RegionsABC.from_sizes(1, 4, 1)
    for k in (0, -1):
        with pytest.raises(GeometryError):
            decompose_truncated_marginal(ia, regions, k)
    with pytest.raises(GeometryError):
        certify_marginal(ia, regions, k0=0)


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

    g_emp = covering_bound(ia, regions)
    for k in range(3):  # k = 2 = max(|A|, |C|) is 0
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
    hood, b = k_neighborhood(regions, max(kk, 1)), regions.b
    a_k, c_k = regions.clip(kk)
    if kk:
        ea = interface_operator(chain.ia, a_k, b, TELESCOPE_S)
        ec = interface_operator(chain.ia, a_k + b, c_k, TELESCOPE_S)
    else:  # A and C clip to nothing, and so do the cross terms
        ea = ec = identity(b)
    ea, ec = embed(ea, hood).matrix, embed(ec, hood).matrix
    f = LocalOperator(hood, ea.conj().T @ ec.conj().T @ ec @ ea)
    return partial_trace(embed(gibbs_state_oracle(chain.ia, regions.b), hood) @ f, regions.b)


@pytest.mark.parametrize("sizes", [(2, 4, 2), (3, 3, 2)])
@pytest.mark.parametrize("r", [1, 2])
def test_traced_interface_product_matches_four_factor_formula(sizes, r):
    ia = builtin_models("random", {"sites": sum(sizes), "range": r, "seed": 7})
    regions = RegionsABC.from_sizes(*sizes)
    chain = Chain(ia)
    for kk in range(max(sizes[0], sizes[2]) + 2):  # kk = 0 clips both to the identity
        got = traced_interface_product(chain, regions, kk)
        want = _four_factor_traced_product(chain, regions, kk)
        assert got.support == want.support
        assert got.is_hermitian()
        err = np.linalg.norm(got.matrix - want.matrix) / np.linalg.norm(want.matrix)
        assert err < 1e-12, (kk, err)


_BASELINE_INSTANCES = [
    ("tfi", {}, (2, 4, 2)),
    ("tfi", {}, (3, 3, 2)),
    ("xxz", {"jz": 0.5}, (2, 5, 2)),
    ("random", {"range": 1, "seed": 1}, (2, 4, 2)),
    ("random", {"range": 2, "seed": 1}, (3, 3, 3)),
    ("random", {"range": 2, "strength": 3.0, "seed": 1}, (2, 4, 3)),
]


@pytest.mark.parametrize("family, params, sizes", _BASELINE_INSTANCES)
def test_closed_forms_match_interface_products_at_every_radius(family, params, sizes):
    """F_kk = (Z_{N_kk}/Z_B) S_kk rho S_kk is the traced interface product at
    every radius, and each tail is the interface route's difference."""
    ia = builtin_models(family, {"sites": sum(sizes), **params})
    regions = RegionsABC.from_sizes(*sizes)
    chain = Chain(ia)
    kmax = max(sizes[0], sizes[2])
    for kk in range(kmax + 2):
        ratio, sandwich, _ = _closed_form(chain, regions, kk)
        got, want = ratio * sandwich, traced_interface_product(chain, regions, kk)
        assert got.support == want.support
        err = np.linalg.norm(got.matrix - want.matrix) / np.linalg.norm(want.matrix)
        assert err <= 1e-10, (kk, err)
    for k in range(kmax + 1):
        upper = traced_interface_product(chain, regions, k + 1)
        want = upper - embed(traced_interface_product(chain, regions, k), upper.support)
        got = tail_term(chain, regions, k).op
        assert got.support == want.support
        assert op_norm(got - want) <= 1e-11, k


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


def test_each_small_operator_is_solved_once(monkeypatch):
    """The norms, least eigenvalue and PSD check of one operator all read its
    one cached spectrum, so no matrix reaches eigvalsh twice."""
    chain = Chain(builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1}))
    regions = RegionsABC.from_sizes(2, 3, 2)
    inputs = record_solver(monkeypatch, "eigvalsh")
    factorization_error(chain, regions)
    for k in (1, 2):
        decompose_truncated_marginal(chain, regions, k)
    assert len(inputs) == 11  # the difference, then per k two minima, two PSD checks, Delta
    assert len(set(inputs)) == len(inputs)


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
    """A Chain forms each reduced state once, whoever asks for it: every
    marginal, held or streamed, is summed by `_accumulate`."""
    gibbs_module = importlib.import_module("chainsep.gibbs")
    form = gibbs_module._accumulate
    seen = []

    def recording(parts, region, xs, d):
        seen.extend((region, tuple(x)) for x in xs)
        return form(parts, region, xs, d)

    monkeypatch.setattr(gibbs_module, "_accumulate", recording)
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
    spectra of A, C, B and the whole chain, and no interface operator; each
    is solved once (`Chain._solve`, which every spectrum and streamed read
    draws from)."""
    solved = []
    solve = Chain._solve

    def recording(self, region):
        solved.append(_region(region))
        return solve(self, region)

    monkeypatch.setattr(Chain, "_solve", recording)
    regions = RegionsABC.from_sizes(1, 6, 1)
    rep = certify_marginal(builtin_models("tfi", {"sites": 8}), regions)
    assert rep.verdict == VERDICT_SEPARABLE and rep.attempted_k0 == (1,)
    assert set(solved) == {regions.a, regions.c, regions.b, regions.all_sites}
    assert len(solved) == len(set(solved))


def test_lemma_suite_solves_only_the_regions_its_verdicts_read(monkeypatch):
    """The partition-function chains read A, B and AB, the marginals ABC; the
    marginal floor is decided at g = 1, so no interface operator is built and
    C, which only an interface operator reads, is never solved.  Each region
    is solved once (`Chain._solve`): the three marginals of ABC in one read."""
    solved = []
    solve = Chain._solve

    def recording(self, region):
        solved.append(_region(region))
        return solve(self, region)

    monkeypatch.setattr(Chain, "_solve", recording)
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 2.0, "seed": 3})
    chain = Chain(ia)
    regions = RegionsABC.from_sizes(2, 3, 2)
    x = LocalOperator(regions.ac, random_hermitian(np.random.default_rng(3), 16))
    assert check_lemmas(chain, regions, x).marginal_floor
    assert set(solved) == {regions.all_sites, regions.a + regions.b, regions.a, regions.b}
    assert len(solved) == len(set(solved))
    assert regions.c not in solved
    assert not [k for k in chain._memo if k[0] == "expansional"]


def test_certify_forms_no_interface_operator(monkeypatch):
    """The tails come from closed forms: certify builds no interface operator
    and solves no a_k + B region, which only an interface operator reads."""
    solved = []
    solve = Chain._solve

    def recording(self, region):
        solved.append(_region(region))
        return solve(self, region)

    monkeypatch.setattr(Chain, "_solve", recording)
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    chain = Chain(ia)
    regions = RegionsABC.from_sizes(2, 3, 2)
    rep = certify_marginal(chain, regions)
    assert rep.attempted_k0 == (1, 2)
    assert ("tail", regions, 1) in chain._memo  # the k0 = 1 attempt has a tail
    assert not [v for v in chain._memo.values() if isinstance(v, ExpansionalReport)]
    for k in (1, 2):
        a_k = regions.clip(k)[0]
        assert a_k + regions.b not in solved


def test_certify_forms_each_side_exponential_once(monkeypatch):
    """The core reads the closed form's factors e^{H_{a_k}/2} and
    e^{H_{c_k}/2}, so certify forms each clipped side's once."""
    formed = []
    exp = Chain.exp

    def recording(self, region, t):
        formed.append((_region(region), t))
        return exp(self, region, t)

    monkeypatch.setattr(Chain, "exp", recording)
    ia = builtin_models("random", {"sites": 9, "range": 2, "strength": 1.5, "seed": 1})
    rep = certify_marginal(ia, RegionsABC.from_sizes(2, 5, 2))
    assert rep.attempted_k0 == (1, 2)
    assert sorted(formed) == [((0, 1), 0.5), ((1,), 0.5), ((7,), 0.5), ((7, 8), 0.5)]


def test_certify_keeps_no_core_decomposition(monkeypatch):
    """Each k0 is attempted once, so the Chain keeps no core: the failed
    k0 = 1 attempt's is freed, and only the report holds the last."""
    separability = importlib.import_module("chainsep.separability")
    cores = []

    def recording(*args):
        core = decompose_truncated_marginal(*args)
        cores.append(weakref.ref(core))
        return core

    monkeypatch.setattr(separability, "decompose_truncated_marginal", recording)
    chain = Chain(builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1}))
    rep = certify_marginal(chain, RegionsABC.from_sizes(2, 3, 2))
    assert rep.attempted_k0 == (1, 2)
    assert not [key for key in chain._memo if key[0] == "core"]
    assert cores[0]() is None and cores[1]() is rep.core


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


@pytest.mark.parametrize("family, params, sizes", [
    ("tfi", {"coupling": 40.0}, (2, 3, 2)),
    ("xxz", {"jxy": 80.0, "jz": 80.0}, (2, 3, 2)),
    ("tfi", {"coupling": 10.0}, (3, 3, 3)),
])
def test_certify_where_rounding_breaks_the_certificate(family, params, sizes):
    """At large coupling, rounding breaks what holds in exact arithmetic: at
    the last k0, rho~_A and rho~_C are not positive definite (tfi at 40,
    least eigenvalues about -2e-6 and -4e-6; xxz at 80, 0) or not Hermitian
    (tfi at 10 on 3|3|3, read as -inf), and xxz's T_1 overflows, so it is
    not Hermitian.  Each attempt then reads Undetermined, with no split or an
    infinite tail norm, and nothing raises or warns."""
    chain = Chain(builtin_models(family, dict(params, sites=sum(sizes))))
    regions = RegionsABC.from_sizes(*sizes)
    rep = certify_marginal(chain, regions)
    assert rep.verdict == VERDICT_UNDETERMINED
    assert rep.attempted_k0 == tuple(range(1, regions.kmax + 1))
    assert min(rep.core.min_eig_a, rep.core.min_eig_c) <= 0
    assert rep.gamma_k0 == 0.0 and not rep.core.ball_ok
    first = certify_marginal(chain, regions, k0=1)
    assert first.verdict == VERDICT_UNDETERMINED
    assert (first.per_k[0].tail_norm == math.inf) == (family == "xxz")


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
    """A Chain keeps each region's spectrum; the assembled H_R, its entries
    and the dense matrix scattered from them, is let go."""
    gibbs_module = importlib.import_module("chainsep.gibbs")
    assemble, dense = gibbs_module.hamiltonian_entries, Entries.dense
    refs = []

    def recording(ia, region):
        h = assemble(ia, region)
        refs.extend((weakref.ref(h.keys), weakref.ref(h.values)))
        return h

    def recording_dense(h):
        m = dense(h)
        refs.append(weakref.ref(m))
        return m

    monkeypatch.setattr(gibbs_module, "hamiltonian_entries", recording)
    monkeypatch.setattr(Entries, "dense", recording_dense)
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
