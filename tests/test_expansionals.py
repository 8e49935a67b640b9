import gc
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    Chain,
    EmptyIntersectionError,
    GeometryError,
    LocalOperator,
    RegionsABC,
    builtin_models,
    certify_marginal,
    check_lemmas,
    contraction_check,
    covering_bound,
    difference_decay,
    embed,
    estimate_uniform_bound,
    expansional,
    factorial_decay_bound,
    gibbs,
    hamiltonian,
    herm_exp,
    kron,
    marginal,
    op_norm,
    truncated_expansional,
)
from helpers import matrix_digest, random_hermitian, random_state, record_eigh, record_solver


def _tfi(n):
    return builtin_models("tfi", {"sites": n})


def test_expansional_identity_for_zero_interaction():
    ia = builtin_models("zero", {"sites": 4})
    rep = expansional(ia, (0, 1), (2, 3), 0.5)
    assert np.allclose(rep.e.matrix, np.eye(16))
    assert rep.norm_e == pytest.approx(1.0)


def test_expansional_identity_at_s_zero():
    ia = _tfi(4)
    rep = expansional(ia, (0, 1), (2, 3), 0.0)
    assert np.abs(rep.e.matrix - np.eye(16)).max() < 1e-14


def test_expansional_inverse_relation():
    ia = _tfi(5)
    rep = expansional(ia, (0, 1), (2, 3, 4), 0.5)
    prod = rep.e @ rep.e_inv
    assert np.abs(prod.matrix - np.eye(32)).max() < 1e-12


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
    expect = herm_exp(boundary, -0.5)
    assert np.abs(rep.e.matrix - expect.matrix).max() < 1e-12


def test_expansional_validates_geometry():
    ia = _tfi(6)
    with pytest.raises(GeometryError):
        expansional(ia, (0, 1), (3, 4), 0.5)  # not adjacent
    with pytest.raises(GeometryError):
        expansional(ia, (0, 2), (3, 4), 0.5)  # not an interval
    with pytest.raises(GeometryError):
        expansional(ia, (0, 1), (2, 3), 1.5)  # |s| > 1


def test_truncated_expansional_matches_clipped_intervals():
    ia = _tfi(9)
    regions = RegionsABC.from_sizes(3, 3, 3)
    rep = truncated_expansional(ia, regions, "A:B", 2, 0.5)
    direct = expansional(ia, (1, 2), (3, 4, 5), 0.5)
    assert rep.e.support == direct.e.support
    assert np.abs(rep.e.matrix - direct.e.matrix).max() < 1e-14
    with pytest.raises(EmptyIntersectionError):
        truncated_expansional(ia, regions, "A:B", 0, 0.5)
    with pytest.raises(GeometryError):
        truncated_expansional(ia, regions, "B:C", 1, 0.5)


def test_truncation_saturates_at_full_intervals():
    ia = _tfi(7)
    regions = RegionsABC.from_sizes(2, 3, 2)
    rep = truncated_expansional(ia, regions, "AB:C", 5, 0.5)
    direct = expansional(ia, regions.a + regions.b, regions.c, 0.5)
    assert np.abs(rep.e.matrix - direct.e.matrix).max() < 1e-14


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


def test_covering_bound_dominates_members():
    ia = _tfi(8)
    regions = RegionsABC.from_sizes(2, 4, 2)
    g = covering_bound(ia, regions, [1, 2], 0.5)
    rep = truncated_expansional(ia, regions, "A:B", 1, 0.5)
    assert g >= max(rep.norm_e, rep.norm_e_inv) - 1e-14
    assert g >= 1.0


def test_factorial_decay_bound_values():
    assert factorial_decay_bound(2.0, 0, 1) == pytest.approx(1.0)
    assert factorial_decay_bound(2.0, 3, 1) == pytest.approx(8 / 24)
    assert factorial_decay_bound(2.0, 3, 2) == pytest.approx(8 / 2)
    # range 0 (on-site only) treated as range 1
    assert factorial_decay_bound(2.0, 2, 0) == pytest.approx(4 / 6)
    # eventually superexponentially small
    assert factorial_decay_bound(3.0, 40, 1) < 1e-18


def test_difference_decay_examples():
    ia = _tfi(8)
    for ell in (1, 2, 3):
        x = tuple(range(3 - ell, 3))[-ell:]
        rep = difference_decay(
            ia,
            tuple(range(3 - ell, 3)),
            tuple(range(3, 3 + ell)),
            (tuple(range(0, 3 - ell)), tuple(range(3 + ell, 8))),
            0.5,
        )
        assert rep.ok, rep
        assert rep.difference_norm <= rep.bound + 1e-12


def test_difference_decay_shrinks_with_ell():
    ia = _tfi(8)
    norms = []
    for ell in (1, 2, 3):
        rep = difference_decay(
            ia,
            tuple(range(4 - ell, 4)),
            tuple(range(4, 4 + ell)),
            (tuple(range(0, 4 - ell)), tuple(range(4 + ell, 8))),
            0.5,
        )
        norms.append(rep.difference_norm)
    assert norms[0] > norms[1] > norms[2]


def test_contraction_on_gibbs_weight():
    ia = _tfi(6)
    g = gibbs(ia, range(6))
    rho_b = marginal(g, (2, 3))
    rng = np.random.default_rng(0)
    x = LocalOperator((1, 2, 3, 4), random_hermitian(rng, 16))
    rep = contraction_check(rho_b, x)
    assert rep.ok
    assert rep.output_norm <= rep.input_norm + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_contraction_random_weights(seed):
    rng = np.random.default_rng(seed)
    rho_b = LocalOperator((1,), random_state(rng, 2))
    x = LocalOperator((0, 1, 2), random_hermitian(rng, 8))
    assert contraction_check(rho_b, x).ok


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]))
def test_expansional_inverse_property(seed, s):
    ia = builtin_models(
        "random", {"sites": 5, "range": 2, "strength": 1.5, "seed": seed}
    )
    rep = expansional(ia, (0, 1, 2), (3, 4), s)
    assert np.abs((rep.e @ rep.e_inv).matrix - np.eye(32)).max() < 1e-10
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


FAMILIES = [
    ("tfi", {}),
    ("xxz", {"jz": 0.5, "field": 0.3}),
    ("classical_ising", {"field": 0.5}),
    ("zero", {}),
    ("random", {"range": 2, "strength": 1.5, "seed": 4}),
]


def _formed(ia, x, y, s):
    """E and E^{-1} formed explicitly from freshly assembled Hamiltonians."""
    xy = x + y
    h_split = embed(hamiltonian(ia, x), xy) + embed(hamiltonian(ia, y), xy)
    h_xy = hamiltonian(ia, xy)
    return (
        (herm_exp(h_xy, -s) @ herm_exp(h_split, s)).matrix,
        (herm_exp(h_split, -s) @ herm_exp(h_xy, s)).matrix,
    )


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
    assert calls == []  # the norms are computed at their first read
    want = np.linalg.svd(e_inv, compute_uv=False)[0]
    assert abs(rep.norm_e_inv - want) <= 1e-10 * want
    assert len(calls) == 2
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
    assert calls == [[], [], []]
    assert rep.e.dim == 64 and calls == [[], [], []]
    assert rep.norm_e > 0 and calls[1]


def test_certify_and_lemmas_call_no_svd(monkeypatch):
    ia = builtin_models("random", {"sites": 7, "range": 2, "strength": 1.5, "seed": 1})
    regions = RegionsABC.from_sizes(2, 3, 2)
    x = LocalOperator(regions.ac, random_hermitian(np.random.default_rng(1), 16))
    svds = record_solver(monkeypatch, "svd")
    assert certify_marginal(ia, regions).attempted_k0
    assert all(astuple(check_lemmas(ia, regions, x)))
    assert svds == []


@pytest.mark.parametrize("s", [0.5, 0.5j, 0.3 + 0.4j])
def test_norm_only_pairs_never_form_e(s):
    chain = Chain(builtin_models("random", {"sites": 8, "range": 2, "seed": 5}))
    regions = RegionsABC.from_sizes(2, 4, 2)
    covering_bound(chain, regions, [1, 2, 3], s)
    reps = [
        expansional(chain, regions.part(left), regions.part(right), s)
        for left, right in (("A", "B"), ("AB", "C"))
    ]
    reps += [
        truncated_expansional(chain, regions, pair, k, s)
        for pair in ("A:B", "AB:C")
        for k in (1, 2, 3)
    ]
    for rep in reps:
        assert "e" not in rep.__dict__ and "e_inv" not in rep.__dict__
    # once read, E and E^{-1} are the products of the spectral context, bit for bit
    for rep in reps[:2]:
        x, y = rep.x, rep.y
        e = chain.exp(x + y, -s) @ kron(chain.exp(x, s), chain.exp(y, s))
        e_inv = kron(chain.exp(x, -s), chain.exp(y, -s)) @ chain.exp(x + y, s)
        assert np.array_equal(rep.e.matrix, e.matrix)
        assert np.array_equal(rep.e_inv.matrix, e_inv.matrix)
        assert rep.e is rep.e and rep.e.support == x + y


def test_expansional_leaves_no_reference_cycle():
    chain = Chain(_tfi(6))
    rep = expansional(chain, (0, 1, 2), (3, 4, 5), 0.5)
    assert rep.e.dim == 64
    ref = weakref.ref(chain)
    gc.disable()
    try:
        del chain  # the report outlives its Chain and does not pin it
        assert ref() is None
    finally:
        gc.enable()
    assert rep.e_inv.dim == 64
