import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    ConfigError,
    GeometryError,
    Interaction,
    LocalOperator,
    ModelSpec,
    RegionsABC,
    builtin_models,
    embed,
    gibbs,
    k_neighborhood,
    marginal,
    op_norm,
)
from chainsep.linalg import HERMITICITY_RTOL
from chainsep.model import PAULI_X, PAULI_Z, _term_norms, hamiltonian_entries

from helpers import embed_oracle, hamiltonian, random_hermitian, record_solver


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
    assert g.chain.exp(ia.sites, -1.0).matrix.dtype == want  # V diag(e^{-w}) V^dag
    for x in ((0, 4), (1, 2, 3, 4)):
        assert marginal(g, x).matrix.dtype == want


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
    # a fresh interaction on the same terms pays one eigvalsh per term side, once
    fresh = Interaction(ia.local_dim, ia.sites, ia.terms, ia.interaction_range)
    assert fresh.strength == ia.strength
    assert fresh.strength == ia.strength
    assert len(calls) == len({mat.shape for mat in ia.terms.values()}) == 3


def test_random_model_pays_two_eigvalsh_per_term_side(monkeypatch):
    # one stack per side normalizes the drawn terms, one more gives the strength,
    # read once; each norm is, bit for bit, the op_norm of the term alone
    import chainsep.model

    stacks = []

    def recording_term_norms(terms):
        norms = _term_norms(terms)
        stacks.append((dict(terms), norms))
        return norms

    monkeypatch.setattr(chainsep.model, "_term_norms", recording_term_norms)
    calls = record_solver(monkeypatch, "eigvalsh")
    ia = builtin_models("random", {"sites": 6, "range": 2, "strength": 1.5, "seed": 2})
    assert ia.strength == pytest.approx(1.5, rel=1e-12)
    assert ia.strength == pytest.approx(1.5, rel=1e-12)
    assert len(calls) == 2 * len({mat.shape for mat in ia.terms.values()}) == 6
    (drawn, drawn_norms), (terms, term_norms) = stacks
    assert list(drawn) == list(drawn_norms) == list(terms) == list(term_norms) == list(ia.terms)
    for read, norms in ((drawn, drawn_norms), (terms, term_norms)):
        for supp, mat in read.items():
            assert norms[supp] == op_norm(LocalOperator(supp, mat, 2)), supp


def _random_term_by_term(sites, range_, strength, seed, local_dim):
    """The random family with each drawn term normalized by its own op_norm."""
    rng, d, n = np.random.default_rng(seed), local_dim, len(sites)
    terms, norms = {}, {}
    for length in range(1, range_ + 2):
        for i in range(n - length + 1):
            supp, side = tuple(sites[i : i + length]), d**length
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            h = (g + g.conj().T) / 2
            nrm = op_norm(LocalOperator(supp, h, d))
            scale, u = max(nrm, 1e-12), rng.uniform(0.2, 1.0)
            terms[supp], norms[supp] = h / scale * u, nrm / scale * u
    j = max((sum(v for supp, v in norms.items() if s in supp) for s in sites), default=0.0)
    return {k: v * (strength / j) for k, v in terms.items()} if j > 0 else terms


def _strength_term_by_term(ia):
    per_site = {s: 0.0 for s in ia.sites}
    for supp, mat in ia.terms.items():
        nrm = op_norm(LocalOperator(supp, mat, ia.local_dim))
        for s in supp:
            per_site[s] += nrm
    return max(per_site.values(), default=0.0)


def test_stacked_term_norms_match_one_op_norm_per_term():
    """Terms and strength, bit for bit, against one op_norm per term: random on
    seeds 0-49 over 3-9 sites, range 1-3 and local_dim 2 and 3, and every other family."""
    for seed in range(50):
        n, range_ = 3 + seed % 7, 1 + seed % 3
        for d in (2, 3):
            params = {"sites": n, "range": range_, "strength": 1.0 + seed / 25, "seed": seed,
                      "local_dim": d}
            ia = builtin_models("random", params)
            want = _random_term_by_term(ia.sites, range_, params["strength"], seed, d)
            assert list(ia.terms) == list(want), params
            for supp, mat in want.items():
                got = ia.terms[supp]
                assert got.dtype == mat.dtype and got.tobytes() == mat.tobytes(), (params, supp)
            assert ia.strength == _strength_term_by_term(ia), params
    for name, params in (("tfi", {"coupling": 0.8, "field": 1.3}), ("xxz", {"jz": 1.7}),
                         ("xxz", {"jxy": 0.6, "field": 0.3}),
                         ("classical_ising", {"field": 0.4}), ("zero", {})):
        ia = builtin_models(name, dict(params, sites=6))
        assert ia.strength == _strength_term_by_term(ia), name
        for supp, nrm in _term_norms(ia.terms).items():
            assert nrm == op_norm(LocalOperator(supp, ia.terms[supp], 2)), (name, supp)


def _check_term_by_term(local_dim, sites, terms, range_):
    """Interaction's term checks made one LocalOperator per term, in term order."""
    for supp, mat in terms.items():
        supp = tuple(int(s) for s in supp)
        if any(b <= a for a, b in zip(supp, supp[1:])):
            raise GeometryError(f"term support must be sorted: {supp}")
        if not set(supp) <= set(sites):
            raise GeometryError(f"term support {supp} outside sites")
        if supp and max(supp) - min(supp) > range_:
            raise GeometryError(f"term {supp} exceeds declared range {range_}")
        if not LocalOperator(supp, mat, local_dim).is_hermitian():
            raise ValueError(f"term {supp} is not Hermitian")


RAISING = np.array([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
ZZ = np.kron(PAULI_Z, PAULI_Z)


@pytest.mark.parametrize(
    "local_dim,terms",
    [
        (2, {(0, 1): ZZ, (1,): RAISING}),
        (2, {(0,): PAULI_X, (1, 2): 1j * ZZ}),
        (2, {(0, 1): ZZ, (1,): PAULI_X, (2,): ZZ}),
        (2, {(0, 1): ZZ, (2, 1): ZZ}),
        (1, {(0,): np.ones((1, 1))}),
        (2, {(0, 3): ZZ}),
        (2, {(0,): PAULI_X, (4,): PAULI_Z}),
        # two bad terms: the first in term order is named
        (2, {(0,): RAISING, (1,): PAULI_Z, (2,): 1j * RAISING}),
        (2, {(1,): PAULI_X, (2,): 1j * RAISING, (0,): RAISING}),
        (2, {(0,): RAISING, (1,): ZZ}),
        (2, {(0,): ZZ, (1,): RAISING}),
        (2, {(1, 0): ZZ, (1,): RAISING}),
        (2, {(2,): 1j * RAISING, (2, 1): ZZ}),
    ],
    ids=["non-hermitian", "non-hermitian-complex", "wrong-shape", "unsorted", "local-dim-1",
         "beyond-range", "outside-sites", "two-non-hermitian", "two-non-hermitian-stacks",
         "non-hermitian-then-shape", "shape-then-non-hermitian", "unsorted-then-non-hermitian",
         "non-hermitian-then-unsorted"],
)
def test_term_checks_name_the_first_bad_term(local_dim, terms):
    """The stacked checks raise what checking one LocalOperator per term does:
    the same exception type and message, on the first bad term in term order."""
    sites = (0, 1, 2, 3)
    with pytest.raises(Exception) as want:
        _check_term_by_term(local_dim, sites, terms, 2)
    with pytest.raises(Exception) as got:
        Interaction(local_dim, sites, terms, 2)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_a_term_with_an_asymmetry_past_1e154_is_not_hermitian():
    """||M||_F of entries of 1e200 overflows when squared, and then any asymmetry
    would pass: the term check reads the norm scaled, and names the term."""
    skew = np.array([[0.0, 1e200], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"term \(1,\) is not Hermitian"):
        Interaction(2, (0, 1), {(0,): PAULI_Z, (1,): skew}, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 2), st.booleans(),
       st.floats(0.0, 0.5))
def test_terms_and_every_region_hamiltonian_are_exactly_hermitian(seed, d, range_, cplx, skew):
    """Each accepted term M, here with an asymmetry of up to half the tolerance,
    is stored read-only as (M + M^dag) / 2: exactly Hermitian, and M itself, bit
    for bit, where M is.  Every interval's H_R adds the same terms, in the same
    order, at (i, j) and at (j, i), so it is exactly Hermitian too."""
    rng = np.random.default_rng(seed)
    sites = tuple(range(range_ + 2))
    exact, skewed = {}, {}
    for length in range(1, range_ + 2):
        for i in range(len(sites) - length + 1):
            g, a = (rng.standard_normal((2, d**length, d**length))
                    + (1j * rng.standard_normal((2, d**length, d**length)) if cplx else 0))
            # + 0.0 makes each -0.0 a +0.0, which (M + M^dag) / 2 always keeps; it keeps
            # a -0.0 only where the mate's conjugate reads -0.0 too
            h = (g + g.conj().T) / 2 + 0.0
            a = a - a.conj().T
            room = skew * HERMITICITY_RTOL * max(1.0, np.linalg.norm(h))
            supp = sites[i:i + length]
            exact[supp] = h
            skewed[supp] = h + a * (room / np.abs(a - a.conj().T).max())
    ia = Interaction(d, sites, skewed, range_)
    for supp, term in ia.terms.items():
        assert not term.flags.writeable, supp
        assert np.array_equal(term, term.conj().T), supp
    for lo in range(len(sites)):
        for hi in range(lo + 1, len(sites) + 1):
            h = hamiltonian_entries(ia, sites[lo:hi]).dense()
            assert np.array_equal(h, h.conj().T), (lo, hi)
    kept = Interaction(d, sites, exact, range_).terms
    for supp, h in exact.items():
        assert kept[supp].dtype == h.dtype and kept[supp].tobytes() == h.tobytes(), supp


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
