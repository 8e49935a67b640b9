import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    Chain,
    ExpansionalReport,
    FloatRangeError,
    GeometryError,
    LemmaReport,
    LocalOperator,
    RegionsABC,
    builtin_models,
    certify_marginal,
    check_lemmas,
    contraction_check,
    covering_bound,
    embed,
    estimate_uniform_bound,
    expansional,
    factorial_decay_bound,
    gibbs,
    herm_exp,
    kron,
    marginal,
    min_eig,
    op_norm,
)
from helpers import (
    embed_oracle,
    hamiltonian,
    interface_operator,
    matrix_digest,
    partial_trace_oracle,
    random_hermitian,
    random_state,
    record_eigh,
    record_solver,
)


def _tfi(n):
    return builtin_models("tfi", {"sites": n})


def _oracle_norms(ia, x, y, s):
    """(||E(s)||, ||E(s)^{-1}||) of the oracle, with E(s)^{-1} = E(-conj s)^dag."""
    return tuple(np.linalg.norm(interface_operator(ia, x, y, t).matrix, 2)
                 for t in (s, -np.conj(s)))


def test_expansional_identity_for_zero_interaction():
    ia = builtin_models("zero", {"sites": 4})
    rep = expansional(ia, (0, 1), (2, 3), 0.5)
    assert abs(rep.norm_e - 1.0) < 1e-14 and abs(rep.norm_e_inv - 1.0) < 1e-14


def test_expansional_identity_at_s_zero():
    ia = _tfi(4)
    rep = expansional(ia, (0, 1), (2, 3), 0.0)
    assert abs(rep.norm_e - 1.0) < 1e-14 and abs(rep.norm_e_inv - 1.0) < 1e-14


def test_expansional_inverse_relation():
    ia = _tfi(5)
    x, y = (0, 1), (2, 3, 4)
    # the oracle's inverse: E(s) E(-conj s)^dag = 1
    e, e_inv = _formed(ia, x, y, 0.5)
    assert np.abs(e @ e_inv - np.eye(32)).max() < 1e-12
    rep = expansional(ia, x, y, 0.5)
    for got, want in zip((rep.norm_e, rep.norm_e_inv), _oracle_norms(ia, x, y, 0.5)):
        assert abs(got - want) <= 1e-12 * want


def test_expansional_commuting_decouples():
    # classical model: all terms commute, so the interface operator is
    # exactly exp of the boundary terms alone
    ia = builtin_models("classical_ising", {"sites": 4})
    rep = expansional(ia, (0, 1), (2, 3), 0.5)
    h_xy = hamiltonian(ia, (0, 1, 2, 3))
    h_split = embed(hamiltonian(ia, (0, 1)), (0, 1, 2, 3)) + embed(
        hamiltonian(ia, (2, 3)), (0, 1, 2, 3)
    )
    boundary = h_xy - h_split
    for got, t in ((rep.norm_e, -0.5), (rep.norm_e_inv, 0.5)):
        want = op_norm(herm_exp(boundary, t))
        assert abs(got - want) <= 1e-12 * want


def test_expansional_validates_geometry():
    ia = _tfi(6)
    with pytest.raises(GeometryError):
        expansional(ia, (0, 1), (3, 4), 0.5)  # not adjacent
    with pytest.raises(GeometryError):
        expansional(ia, (0, 2), (3, 4), 0.5)  # not an interval
    with pytest.raises(GeometryError):
        expansional(ia, (0, 1), (2, 3), 1.5)  # |s| > 1


def test_uniform_bound_grid():
    ia = _tfi(6)
    est = estimate_uniform_bound(ia, [(1, 1), (2, 2)], [0.5, -0.5])
    assert est.value >= 1.0
    # all placements of both shapes at both s values
    assert len(est.entries) == (5 + 3) * 2
    assert est.value == pytest.approx(
        max(1.0, *(max(e[3], e[4]) for e in est.entries))
    )


def test_uniform_bound_trivial_for_zero_model():
    ia = builtin_models("zero", {"sites": 5})
    est = estimate_uniform_bound(ia, [(1, 2)], [0.5])
    assert est.value == pytest.approx(1.0)


def test_uniform_bound_rejects_a_pair_that_fits_nowhere():
    # no placement of 3 + 3 sites in 5: the grid would measure g on nothing
    ia = _tfi(5)
    with pytest.raises(GeometryError):
        estimate_uniform_bound(ia, [(3, 3)], [0.5])
    with pytest.raises(GeometryError):
        estimate_uniform_bound(ia, [(2, 3), (3, 3)], [0.5])
    assert len(estimate_uniform_bound(ia, [(2, 3)], [0.5]).entries) == 1


def test_covering_bound_dominates_members():
    ia = _tfi(8)
    regions = RegionsABC.from_sizes(2, 4, 2)
    g = covering_bound(ia, regions, 0.5)
    a_1, _ = regions.clip(1)
    rep = expansional(ia, a_1, regions.b, 0.5)
    assert g >= max(rep.norm_e, rep.norm_e_inv) - 1e-14
    assert g >= 1.0


def test_covering_bound_is_the_max_over_its_pairs():
    cases = [
        # A:B and AB:C, whole (k >= 2) and at k = 1; k = 0 clips both to nothing
        ((2, 4, 2), [((0, 1), (2, 3, 4, 5)), ((0, 1, 2, 3, 4, 5), (6, 7)),
                     ((1,), (2, 3, 4, 5)), ((1, 2, 3, 4, 5), (6,))]),
        # |A| < |C|: A is whole at every k >= 1, C is clipped at k = 1, 2
        ((1, 3, 3), [((0,), (1, 2, 3)), ((0, 1, 2, 3), (4, 5, 6)),
                     ((0, 1, 2, 3), (4,)), ((0, 1, 2, 3), (4, 5))]),
        # |A| = 5: A is clipped at k = 1 .. 4
        ((5, 2, 1), [((0, 1, 2, 3, 4), (5, 6)), ((0, 1, 2, 3, 4, 5, 6), (7,)),
                     ((4,), (5, 6)), ((4, 5, 6), (7,)),
                     ((3, 4), (5, 6)), ((3, 4, 5, 6), (7,)),
                     ((2, 3, 4), (5, 6)), ((2, 3, 4, 5, 6), (7,)),
                     ((1, 2, 3, 4), (5, 6)), ((1, 2, 3, 4, 5, 6), (7,))]),
    ]
    for sizes, pairs in cases:
        ia = builtin_models("random", {"sites": sum(sizes), "range": 2, "seed": 1})
        reps = [expansional(ia, x, y, 0.5) for x, y in pairs]
        want = max(1.0, *(n for rep in reps for n in (rep.norm_e, rep.norm_e_inv)))
        assert want > 1.0
        assert covering_bound(ia, RegionsABC.from_sizes(*sizes), 0.5) == want


def test_factorial_decay_bound_values():
    assert factorial_decay_bound(2.0, 0, 1) == pytest.approx(1.0)
    assert factorial_decay_bound(2.0, 3, 1) == pytest.approx(8 / 24)
    assert factorial_decay_bound(2.0, 3, 2) == pytest.approx(8 / 2)
    # range 0 (on-site only) treated as range 1
    assert factorial_decay_bound(2.0, 2, 0) == pytest.approx(4 / 6)
    # eventually superexponentially small
    assert factorial_decay_bound(3.0, 40, 1) < 1e-18


def _difference_decay(ia, ell, split):
    """||E_big - E_small|| and ||E_big^{-1} - E_small^{-1}|| at s = 1/2, for
    X, Y the ell sites left and right of `split` and X~X, YY~ the whole chain,
    and the factorial bound with g measured on the two expansionals."""
    x, y = tuple(range(split - ell, split)), tuple(range(split, split + ell))
    big_x, big_y = tuple(range(split)), tuple(range(split, len(ia.sites)))
    diffs = []
    for t in (0.5, -0.5):  # E(1/2)^{-1} = E(-1/2)^dag, and ^dag keeps the norm
        big = interface_operator(ia, big_x, big_y, t)
        small = embed(interface_operator(ia, x, y, t), big.support)
        diffs.append(np.linalg.norm((big - small).matrix, 2))
    reps = [expansional(ia, x, y, 0.5), expansional(ia, big_x, big_y, 0.5)]
    g = max(1.0, *(n for rep in reps for n in (rep.norm_e, rep.norm_e_inv)))
    return diffs, factorial_decay_bound(g, ell, ia.interaction_range)


def test_difference_decay_examples():
    ia = _tfi(8)
    for ell in (1, 2, 3):
        diffs, bound = _difference_decay(ia, ell, 3)
        assert max(diffs) <= bound + 1e-12, (ell, diffs, bound)


def test_difference_decay_shrinks_with_ell():
    ia = _tfi(8)
    norms = [_difference_decay(ia, ell, 4)[0][0] for ell in (1, 2, 3)]
    assert norms[0] > norms[1] > norms[2]


def test_contraction_on_gibbs_weight():
    ia = _tfi(6)
    g = gibbs(ia, range(6))
    rho_b = marginal(g, (2, 3))
    rng = np.random.default_rng(0)
    x = LocalOperator((1, 2, 3, 4), random_hermitian(rng, 16))
    assert contraction_check(rho_b, x)
    out = partial_trace_oracle(embed_oracle(rho_b.matrix, rho_b.support, x.support) @ x.matrix,
                               x.support, rho_b.support)
    assert op_norm(LocalOperator((1, 4), out)) <= op_norm(x) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_contraction_random_weights(seed):
    rng = np.random.default_rng(seed)
    rho_b = LocalOperator((1,), random_state(rng, 2))
    x = LocalOperator((0, 1, 2), random_hermitian(rng, 8))
    assert contraction_check(rho_b, x)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]))
def test_expansional_inverse_property(seed, s):
    ia = builtin_models(
        "random", {"sites": 5, "range": 2, "strength": 1.5, "seed": seed}
    )
    rep = expansional(ia, (0, 1, 2), (3, 4), s)
    for got, want in zip((rep.norm_e, rep.norm_e_inv), _oracle_norms(ia, (0, 1, 2), (3, 4), s)):
        assert abs(got - want) <= 1e-10 * want
    assert max(rep.norm_e, rep.norm_e_inv) >= 1.0 - 1e-12
    # the spectral context against exponentials of freshly assembled
    # Hamiltonians: e^{sH_R} from the cached spectrum, and the split
    # exponential e^{sH_X} (x) e^{sH_Y} against e^{s(H_X (x) 1 + 1 (x) H_Y)}
    chain = Chain(ia)
    xy = tuple(range(5))
    split = embed(hamiltonian(ia, (0, 1, 2)), xy) + embed(hamiltonian(ia, (3, 4)), xy)
    for got, want in (
        (chain.exp(xy, s), herm_exp(hamiltonian(ia, xy), s)),
        (chain.exp((3, 4), s), herm_exp(hamiltonian(ia, (3, 4)), s)),
        (kron(chain.exp((0, 1, 2), s), chain.exp((3, 4), s)), herm_exp(split, s)),
    ):
        assert got.support == want.support
        assert np.abs(got.matrix - want.matrix).max() <= 1e-12 * np.abs(want.matrix).max()


def test_lemma_suite_diagonalizes_each_matrix_once(monkeypatch):
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 2.0, "seed": 3})
    regions = RegionsABC.from_sizes(2, 3, 2)
    x = LocalOperator(regions.ac, random_hermitian(np.random.default_rng(3), 16))
    inputs = record_eigh(monkeypatch)
    report = check_lemmas(ia, regions, x)
    assert all(astuple(report))
    assert len(inputs) == len(set(inputs))
    assert inputs.count(matrix_digest(hamiltonian(ia, regions.all_sites).matrix)) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lemma_suite_at_a_coupling_whose_interface_norms_overflow():
    """At tfi coupling 80 the Gram of the interface norms overflows; the
    marginal floor is decided without them, from min eig(rho_B) alone."""
    ia = builtin_models("tfi", {"sites": 10, "coupling": 80.0})
    regions = RegionsABC.from_sizes(1, 8, 1)
    chain = Chain(ia)
    x = LocalOperator(regions.ac, random_hermitian(np.random.default_rng(0), 4))
    report = check_lemmas(chain, regions, x)
    assert isinstance(report, LemmaReport)
    assert report.marginal_floor == (min_eig(chain.marginal(regions.all_sites, regions.b)) > 0)


FAMILIES = [
    ("tfi", {}),
    ("xxz", {"jz": 0.5, "field": 0.3}),
    ("classical_ising", {"field": 0.5}),
    ("zero", {}),
    ("random", {"range": 2, "strength": 1.5, "seed": 4}),
    ("random", {"range": 1, "strength": 2.0, "seed": 5, "local_dim": 3}),
]


def _formed(ia, x, y, s):
    """E(s) and E(s)^{-1} = E(-conj s)^dag of the oracle, as matrices."""
    return (interface_operator(ia, x, y, s).matrix,
            interface_operator(ia, x, y, -np.conj(s)).matrix.conj().T)


@pytest.mark.parametrize("family,params", FAMILIES)
@pytest.mark.parametrize("s", [0.5, -0.5, 0.5j, 0.3 + 0.4j])
def test_expansional_norms_match_svd_of_formed_operators(family, params, s):
    ia = builtin_models(family, dict(params, sites=6))
    chain = Chain(ia)
    for x, y in [((0,), (1, 2, 3, 4, 5)), ((0, 1, 2), (3, 4)), ((1, 2), (3, 4, 5))]:
        rep = expansional(chain, x, y, s)
        e, e_inv = _formed(ia, x, y, s)
        for got, m in ((rep.norm_e, e), (rep.norm_e_inv, e_inv)):
            want = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(got - want) <= 1e-10 * want


def test_ill_conditioned_inverse_norm_takes_the_inverse_gram(monkeypatch):
    ia = builtin_models("xxz", {"sites": 4})
    x, y = (0, 1), (2, 3)
    e, e_inv = _formed(ia, x, y, 1.0)
    sv = np.linalg.svd(e, compute_uv=False)
    # kappa(E) ~ 2e5, so 1/sqrt(lambda_min(A A^dag)) may be off by
    # eps n kappa^2 > 1e-10 and ||E^{-1}|| comes from the eigvalsh of B B^dag
    assert np.finfo(float).eps * 16 * (sv[0] / sv[-1]) ** 2 > 1e-10
    chain = Chain(ia)
    calls = record_solver(monkeypatch, "eigvalsh")
    rep = expansional(chain, x, y, 1.0)
    assert len(calls) == 2  # both Grams, when the report is built
    want = np.linalg.svd(e_inv, compute_uv=False)[0]
    assert abs(rep.norm_e_inv - want) <= 1e-10 * want
    assert abs(rep.norm_e - sv[0]) <= 1e-10 * sv[0]
    assert len(calls) == 2
    # well conditioned: the one eigvalsh of A A^dag gives both norms
    calls.clear()
    rep = expansional(chain, x, y, 0.25)
    assert rep.norm_e > 0 and rep.norm_e_inv > 0
    assert len(calls) == 1


@pytest.mark.parametrize("s", [0.5, -1.0, 0.3 + 0.4j])
def test_building_an_expansional_solves_nothing(monkeypatch, s):
    chain = Chain(builtin_models("random", {"sites": 6, "range": 2, "seed": 3}))
    for region in ((0, 1, 2, 3, 4, 5), (0, 1, 2), (3, 4, 5)):
        chain.spectrum(region)
    calls = [record_solver(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")]
    rep = expansional(chain, (0, 1, 2), (3, 4, 5), s)
    # the held spectra are read, and the one Gram is solved when the report is built
    assert rep.norm_e > 0 and rep.norm_e_inv > 0
    assert len(calls[1]) == 1 and calls[0] == calls[2] == []


def test_certify_and_lemmas_call_no_svd(monkeypatch):
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    regions = RegionsABC.from_sizes(2, 3, 2)
    x = LocalOperator(regions.ac, random_hermitian(np.random.default_rng(1), 16))
    svds = record_solver(monkeypatch, "svd")
    assert certify_marginal(ia, regions).attempted_k0
    assert all(astuple(check_lemmas(ia, regions, x)))
    assert svds == []


@pytest.mark.parametrize("s", [0.5, 0.5j, 0.3 + 0.4j])
def test_a_report_keeps_only_its_norms(s):
    chain = Chain(builtin_models("random", {"sites": 8, "range": 2, "seed": 5}))
    regions = RegionsABC.from_sizes(2, 4, 2)
    covering_bound(chain, regions, s)
    a, b, c = regions.a, regions.b, regions.c
    reps = [expansional(chain, a, b, s), expansional(chain, a + b, c, s)]
    for a_k, c_k in map(regions.clip, (1, 2, 3)):
        reps += [expansional(chain, a_k, b, s), expansional(chain, a_k + b, c_k, s)]
    # a report is its two norms, and holds no spectrum
    assert ExpansionalReport._fields == ("norm_e", "norm_e_inv")
    for rep in reps:
        assert type(rep) is ExpansionalReport
        assert all(isinstance(n, float) for n in rep)


def test_exp_raises_where_a_factor_overflows():
    """At tfi coupling 800, e^{-H} of four sites is beyond the float range:
    `Chain.exp` raises, and an expansional that needs it caches nothing."""
    chain = Chain(builtin_models("tfi", {"sites": 6, "coupling": 800.0}))
    with pytest.raises(FloatRangeError) as err:
        chain.exp((0, 1, 2, 3), -1.0)
    assert isinstance(err.value, ValueError)
    with pytest.raises(FloatRangeError):
        expansional(chain, (0, 1), (2, 3), 1.0)
    assert not [key for key in chain._memo if key[0] == "expansional"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_interface_gram_beyond_the_float_range_raises():
    """At tfi coupling 200 every factor is finite but F(t) overflows when
    formed; its Gram is checked before the eigvalsh, with no warning."""
    chain = Chain(builtin_models("tfi", {"sites": 6, "coupling": 200.0}))
    assert np.isfinite(chain.exp((0, 1, 2, 3), -1.0).matrix).all()
    with pytest.raises(FloatRangeError):
        expansional(chain, (0, 1), (2, 3), 1.0)


def test_expansional_leaves_no_reference_cycle():
    chain = Chain(_tfi(6))
    rep = expansional(chain, (0, 1, 2), (3, 4, 5), 0.5)
    unread = expansional(chain, (0, 1), (2, 3), 0.5)
    assert rep.norm_e > 0
    ref = weakref.ref(chain)
    gc.disable()
    try:
        del chain  # the report outlives its Chain and does not pin it
        assert ref() is None
    finally:
        gc.enable()
    assert rep.norm_e_inv > 0 and unread.norm_e > 0 and unread.norm_e_inv > 0
