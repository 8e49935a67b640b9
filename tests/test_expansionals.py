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
    marginal,
    op_norm,
    truncated_expansional,
)
from helpers import matrix_digest, random_hermitian, random_state, record_eigh


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
        (chain.split_exp((0, 1, 2), (3, 4), s), herm_exp(split, s)),
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
