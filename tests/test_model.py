import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    ConfigError,
    GeometryError,
    Interaction,
    ModelSpec,
    RegionsABC,
    builtin_models,
    embed,
    gibbs,
    hamiltonian,
    k_neighborhood,
    marginal,
    op_norm,
)
from chainsep.model import PAULI_X, PAULI_Z, hamiltonian_entries

from helpers import embed_oracle, random_hermitian, record_solver


def test_zero_interaction_hamiltonian():
    ia = builtin_models("zero", {"sites": 4})
    h = hamiltonian(ia, (0, 1, 2))
    assert np.array_equal(h.matrix, np.zeros((8, 8)))


def test_single_site_field_hamiltonian():
    ia = Interaction(2, (0, 1), {(0,): 0.7 * PAULI_Z, (1,): 0.7 * PAULI_Z}, 0)
    h = hamiltonian(ia, (0, 1))
    expect = 0.7 * (np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z))
    assert np.allclose(h.matrix, expect)


def test_tfi_vs_term_by_term_oracle():
    ia = builtin_models("tfi", {"sites": 3})
    h = hamiltonian(ia, (0, 1, 2))
    # independent summation: embed every term by hand via kron
    eye = np.eye(2)
    expect = (
        -np.kron(np.kron(PAULI_Z, PAULI_Z), eye)
        - np.kron(eye, np.kron(PAULI_Z, PAULI_Z))
        - np.kron(np.kron(PAULI_X, eye), eye)
        - np.kron(np.kron(eye, PAULI_X), eye)
        - np.kron(np.kron(eye, eye), PAULI_X)
    )
    assert np.abs(h.matrix - expect).max() < 1e-14


FAMILIES = (
    ("zero", {}),
    ("tfi", {"coupling": 0.8, "field": 1.3}),
    ("classical_ising", {"field": 0.4}),
    ("xxz", {"jxy": 0.6, "jz": 1.1, "field": 0.3}),
    ("random", {"range": 2, "seed": 5}),
)


def _noncontiguous_interaction():
    rng = np.random.default_rng(23)
    terms = {
        (0, 2): random_hermitian(rng, 4),
        (1, 3, 4): random_hermitian(rng, 8).real,
        (2,): 0.5 * PAULI_X,
        (3, 4): np.kron(PAULI_Z, PAULI_X),
    }
    return Interaction(2, (0, 1, 2, 3, 4), terms, 3)


@pytest.mark.parametrize(
    "ia",
    [builtin_models(name, dict(params, sites=5)) for name, params in FAMILIES]
    + [_noncontiguous_interaction(),
       builtin_models("random", {"sites": 5, "range": 1, "seed": 3, "local_dim": 3})],
    ids=[name for name, _ in FAMILIES] + ["noncontiguous", "random-d3"],
)
def test_hamiltonian_vs_brute_force_sum(ia):
    """Bit for bit: the terms inside the region, embedded and added one by one
    in term order to zero, in their result dtype (regions of at most 3 sites
    at d = 3, where the oracle's index loops are slow)."""
    d = ia.local_dim
    for region in ((0, 1, 2, 3, 4), (1, 2, 3), (0, 1, 3, 4), (0, 2, 3), (1, 3, 4)):
        if d ** len(region) > 32:
            continue
        inside = [(supp, mat) for supp, mat in ia.terms.items() if set(supp) <= set(region)]
        dtype = np.result_type(float, *(mat.dtype for _, mat in inside))
        expect = np.zeros((d ** len(region),) * 2, dtype=dtype)
        for supp, mat in inside:
            term = embed_oracle(mat, supp, region, d)
            expect += term if dtype == complex else term.real
        h = hamiltonian(ia, region)
        assert h.support == region
        assert h.matrix.dtype == dtype and h.matrix.tobytes() == expect.tobytes(), region


@pytest.mark.parametrize("band", [1, 8, 64])
def test_hamiltonian_is_the_same_summed_in_bands(band, monkeypatch):
    """Rows are summed a band at a time; any band gives the entries, bit for
    bit, of the whole matrix summed at once, on contiguous, noncontiguous and
    d = 3 regions."""
    models = [builtin_models("tfi", {"sites": 6, "coupling": 0.7, "field": 1.1}),
              builtin_models("random", {"sites": 4, "range": 1, "seed": 2, "local_dim": 3}),
              _noncontiguous_interaction()]
    regions = [(0, 1, 2, 3), (0, 2, 3), (1, 3)]
    whole = [hamiltonian_entries(ia, r) for ia in models for r in regions]
    monkeypatch.setattr("chainsep.model.ASSEMBLY_BAND", band)
    for h, again in zip(whole, (hamiltonian_entries(ia, r) for ia in models for r in regions)):
        assert np.all(h.values != 0) and np.all(np.diff(h.keys) > 0)
        assert h.keys.tobytes() == again.keys.tobytes()
        assert h.values.tobytes() == again.values.tobytes()


@pytest.mark.parametrize("name,params", FAMILIES[1:], ids=[n for n, _ in FAMILIES[1:]])
def test_real_models_stay_real(name, params):
    ia = builtin_models(name, dict(params, sites=5))
    want = np.complex128 if name == "random" else np.float64
    g = gibbs(ia, ia.sites)
    assert hamiltonian(ia, ia.sites).matrix.dtype == want
    assert g.rho.matrix.dtype == want
    assert marginal(g, (0, 4)).matrix.dtype == want


def test_hamiltonian_empty_region_rejected():
    ia = builtin_models("tfi", {"sites": 3})
    with pytest.raises(GeometryError):
        hamiltonian(ia, ())


def test_hamiltonian_norm_bounded_by_strength():
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 1.5, "seed": 4})
    h = hamiltonian(ia, ia.sites)
    assert op_norm(h) <= ia.strength * len(ia.sites) + 1e-9


def test_k_neighborhood_basic():
    regions = RegionsABC.from_sizes(4, 5, 4)
    assert k_neighborhood(regions, 0) == regions.b
    assert k_neighborhood(regions, 2) == tuple(range(2, 11))
    assert len(k_neighborhood(regions, 2)) == 9
    assert k_neighborhood(regions, 7) == regions.all_sites


def test_clip_keeps_the_sites_within_k_of_b():
    regions = RegionsABC.from_sizes(3, 3, 3)
    assert regions.clip(2) == ((1, 2), (6, 7))
    assert regions.clip(0) == ((), ())
    with pytest.raises(GeometryError):
        regions.clip(-1)


def test_clip_saturates_at_full_intervals():
    regions = RegionsABC.from_sizes(2, 3, 2)
    assert regions.clip(2) == regions.clip(5) == (regions.a, regions.c)


def test_truncated_ac_splits_for_wide_gap():
    # |B| >= range, so the clipped A u C Hamiltonian is H_A + H_C
    ia = builtin_models("tfi", {"sites": 9})
    regions = RegionsABC.from_sizes(3, 3, 3)
    hood = set(k_neighborhood(regions, 2))
    a_clip = tuple(s for s in regions.a if s in hood)
    c_clip = tuple(s for s in regions.c if s in hood)
    h_ac = hamiltonian(ia, a_clip + c_clip)
    split = embed(hamiltonian(ia, a_clip), h_ac.support) + embed(
        hamiltonian(ia, c_clip), h_ac.support
    )
    assert np.abs(h_ac.matrix - split.matrix).max() < 1e-14


def test_tfi_strength_convention():
    # interior site: two bonds of norm 1 plus one field of norm 1
    ia = builtin_models("tfi", {"sites": 5, "coupling": 1.0, "field": 1.0})
    assert ia.interaction_range == 1
    assert ia.strength == pytest.approx(3.0)


def test_strength_is_computed_once(monkeypatch):
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 1.5, "seed": 2})
    per_site = {s: 0.0 for s in ia.sites}
    for supp, mat in ia.terms.items():
        for s in supp:
            per_site[s] += np.linalg.norm(mat, 2)  # the largest singular value
    assert ia.strength == pytest.approx(max(per_site.values()), rel=1e-12)
    calls = record_solver(monkeypatch, "eigvalsh")
    assert ia.strength == pytest.approx(1.5, rel=1e-12)
    assert calls == []
    # a fresh interaction on the same terms pays one op_norm per term, once
    fresh = Interaction(ia.local_dim, ia.sites, ia.terms, ia.interaction_range)
    assert fresh.strength == ia.strength
    assert fresh.strength == ia.strength
    assert len(calls) == len(ia.terms)


def test_random_model_pays_two_op_norms_per_term(monkeypatch):
    # one to normalize each drawn term, one for the strength, read once
    import chainsep.model

    supports = []

    def counting_op_norm(op):
        supports.append(op.support)
        return op_norm(op)

    monkeypatch.setattr(chainsep.model, "op_norm", counting_op_norm)
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 1.5, "seed": 2})
    assert ia.strength == pytest.approx(1.5, rel=1e-12)
    assert ia.strength == pytest.approx(1.5, rel=1e-12)
    assert sorted(supports) == sorted(2 * list(ia.terms))


def test_zero_model_strength():
    assert builtin_models("zero", {"sites": 4}).strength == 0.0


def test_random_model_is_deterministic():
    a = builtin_models("random", {"sites": 5, "range": 2, "strength": 2.0, "seed": 7})
    b = builtin_models("random", {"sites": 5, "range": 2, "strength": 2.0, "seed": 7})
    assert set(a.terms) == set(b.terms)
    for supp in a.terms:
        assert np.array_equal(a.terms[supp], b.terms[supp])


def test_random_model_strength_is_normalized():
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 2.5, "seed": 1})
    assert ia.strength == pytest.approx(2.5, rel=1e-12)


def test_random_model_at_strength_zero_is_the_zero_model():
    ia = builtin_models("random", {"sites": 5, "range": 2, "strength": 0.0, "seed": 1})
    assert ia.strength == 0.0
    assert ia.terms and all(not np.any(term) for term in ia.terms.values())


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        builtin_models("does-not-exist", {"sites": 3})


def test_boundary_term_norm_bound():
    # splitting an interval drops only terms near the cut
    ia = builtin_models("random", {"sites": 8, "range": 2, "strength": 2.0, "seed": 9})
    full = hamiltonian(ia, ia.sites)
    left = hamiltonian(ia, ia.sites[:4])
    right = hamiltonian(ia, ia.sites[4:])
    gap = full - (embed(left, ia.sites) + embed(right, ia.sites))
    assert op_norm(gap) <= ia.interaction_range * ia.strength + 1e-9


def test_interaction_additivity():
    a = builtin_models("tfi", {"sites": 4})
    b = builtin_models("classical_ising", {"sites": 4})
    combined = Interaction(
        2,
        a.sites,
        {k: a.terms.get(k, 0) + b.terms.get(k, 0) for k in a.terms.keys() | b.terms.keys()},
        1,
    )
    h = hamiltonian(combined, (0, 1, 2, 3))
    expect = hamiltonian(a, (0, 1, 2, 3)) + hamiltonian(b, (0, 1, 2, 3))
    assert np.abs(h.matrix - expect.matrix).max() < 1e-13


def test_model_spec_roundtrip():
    spec = ModelSpec("random", {"range": 2, "strength": 2.0}, sites=6, seed=11)
    text = spec.canonical_json()
    again = ModelSpec.from_dict(json.loads(text))
    assert again == spec
    assert again.canonical_json() == text
    ia1, ia2 = spec.build(), again.build()
    assert ia1.strength == ia2.strength
    for supp in ia1.terms:
        assert np.array_equal(ia1.terms[supp], ia2.terms[supp])


def test_regions_validation():
    with pytest.raises(GeometryError):
        RegionsABC((0, 1), (3, 4), (5, 6))  # gap between A and B
    with pytest.raises(GeometryError):
        RegionsABC((0, 1), (), (2,))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 6))
def test_k_neighborhood_size(na, nb, nc, k):
    regions = RegionsABC.from_sizes(na, nb, nc)
    hood = k_neighborhood(regions, k)
    assert len(hood) == nb + min(k, na) + min(k, nc)
    assert set(regions.b) <= set(hood)
    a_k, c_k = regions.clip(k)
    # the sites of A and of C within k of B, filtered one by one
    assert a_k == tuple(s for s in regions.a if regions.b[0] - s <= k)
    assert c_k == tuple(s for s in regions.c if s - regions.b[-1] <= k)
    assert hood == a_k + regions.b + c_k
