import dataclasses
import importlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    BudgetError,
    Chain,
    GeometryError,
    Interaction,
    LocalOperator,
    ModelSpec,
    RegionsABC,
    builtin_models,
    certify_marginal,
    check_partition_ratios,
    embed,
    entropy,
    expansional,
    factorization_error,
    gibbs,
    marginal,
    marginal_floor_ok,
    min_eig,
    mutual_information,
    mutual_information_of,
    op_norm,
    partial_trace,
)
from chainsep.expansionals import _uniform
from chainsep.gibbs import (DEFAULT_BUDGET, GibbsEnsemble, Piece, Spectrum, _columns,
                            _components, _crossing_norm)
from chainsep.model import ASSEMBLY_BAND, PAULI_X, PAULI_Z, Entries, hamiltonian_entries

from helpers import (
    entries_of,
    feed_hamiltonian,
    gibbs_state_oracle,
    hamiltonian,
    matrix_digest,
    partial_trace_oracle,
    random_hermitian,
    random_state,
    record_eigh,
    relative_entropy,
)


def _eigenvalues(spectrum):
    """Every eigenvalue of a Spectrum, ascending: its parts', sorted."""
    parts = [pc.w for pc in spectrum.pieces] + [spectrum.diagonal[1]]
    return np.sort(np.concatenate(parts), kind="stable")


def _rand_ia(seed, sites=6, rng=2, strength=2.0):
    return builtin_models(
        "random", {"sites": sites, "range": rng, "strength": strength, "seed": seed}
    )


def test_partition_function_zero_interaction():
    ia = builtin_models("zero", {"sites": 5})
    assert Chain(ia).log_partition_function(range(5)) == pytest.approx(np.log(2**5))


def test_partition_function_single_field():
    # H = z-field of weight 0.3 on one site: Z = e^{-0.3} + e^{0.3}
    ia = Interaction(2, (0,), {(0,): 0.3 * PAULI_Z}, 0)
    assert Chain(ia).log_partition_function((0,)) == pytest.approx(np.log(2 * np.cosh(0.3)))


def test_gibbs_state_is_normalized_and_psd():
    ia = _rand_ia(3)
    g = gibbs(ia, range(6))
    rho = gibbs_state_oracle(ia, range(6))
    assert rho.trace().real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho.matrix).min() > 0
    w = _eigenvalues(g.chain.spectrum(range(6)))
    p = np.exp(w[0] - w) / np.exp(w[0] - w).sum()
    assert p.sum() == pytest.approx(1.0)
    assert np.abs(np.linalg.eigvalsh(rho.matrix)[::-1] - p).max() <= 1e-14
    rho_x = marginal(g, range(5))
    assert rho_x.trace().real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho_x.matrix).min() > 0
    z = np.exp(-np.linalg.eigvalsh(hamiltonian(ia, range(6)).matrix)).sum()
    assert np.exp(Chain(ia).log_partition_function(range(6))) == pytest.approx(z)


def test_budget_enforced():
    ia = builtin_models("tfi", {"sites": 8})
    with pytest.raises(BudgetError):
        gibbs(Chain(ia, 128), range(8))


KNOBS = {"budget", "recon_tol", "slack", "psd_tol", "rtol", "g_emp"}
LAYERS = ("linalg", "model", "gibbs", "expansionals", "separability", "cli")


def _public_callables():
    """Every public function of the package, and every public method (and
    constructor) of its public classes, by qualified name."""
    found = {}
    for module in (importlib.import_module(f"chainsep.{m}") for m in LAYERS):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{module.__name__}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr in dir(obj):
                    fn = getattr(obj, attr)
                    if inspect.isfunction(fn) and (attr == "__init__" or attr[0] != "_"):
                        found[f"{module.__name__}.{name}.{attr}"] = fn
    return found


def test_only_chain_takes_a_budget(monkeypatch):
    """A knob is an optional parameter.  A budget is set only by Chain(ia,
    budget), and the tolerances are module constants.  (BudgetError(dim,
    budget) and factorial_decay_bound(g_emp, ...) take these names as data.)"""
    knobs = {}
    for name, fn in _public_callables().items():
        params = inspect.signature(fn).parameters.items()
        taken = sorted(p for p, v in params if p in KNOBS and v.default is not v.empty)
        if taken:
            knobs[name] = taken
    assert knobs == {"chainsep.gibbs.Chain.__init__": ["budget"]}

    # an Interaction gets a Chain at the default budget, checked before assembly
    assembled = []
    for module, name in (("chainsep.gibbs", "hamiltonian_entries"),
                         ("chainsep.model", "hamiltonian_entries")):
        monkeypatch.setattr(importlib.import_module(module), name, lambda *a: assembled.append(a))
    monkeypatch.setattr(Entries, "summed", lambda *a: assembled.append(a))
    ia = builtin_models("tfi", {"sites": 13})
    with pytest.raises(BudgetError) as exc:
        gibbs(ia, range(13))
    assert (exc.value.dim, exc.value.budget) == (2**13, DEFAULT_BUDGET)
    assert assembled == []


MARGINAL_MODELS = {
    "tfi": ("tfi", {"sites": 6}),
    "random": ("random", {"sites": 6, "range": 2, "strength": 2.0, "seed": 5}),
    "random-d3": ("random", {"sites": 5, "range": 1, "strength": 2.0, "seed": 5, "local_dim": 3}),
}


@pytest.mark.parametrize("model", sorted(MARGINAL_MODELS))
def test_marginal_consistency(model):
    ia = builtin_models(*MARGINAL_MODELS[model])
    n = len(ia.sites)
    g = gibbs(ia, range(n))
    rho = gibbs_state_oracle(ia, range(n))
    # contiguous, A u C, a single site, all sites but one
    for x in ((1, 2), (0, n - 1), (2,), tuple(range(1, n))):
        m = marginal(g, x)
        again = partial_trace(rho, tuple(s for s in range(n) if s not in x))
        assert m.support == again.support
        assert m.matrix.dtype == rho.matrix.dtype
        assert np.abs(m.matrix - again.matrix).max() < 1e-13, x
        assert m.trace().real == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        marginal(g, (7,))


def test_a_marginal_is_of_a_nonempty_proper_subregion():
    """No code forms a whole Gibbs state: X = R is a geometry error, on the
    Chain and on the view, as an empty X or one reaching outside R is."""
    chain = Chain(builtin_models("tfi", {"sites": 4}))
    g = gibbs(chain, range(4))
    for x in (range(4), (0, 1, 2, 3), (), (0, 4)):
        with pytest.raises(GeometryError):
            chain.marginal(range(4), x)
        with pytest.raises(GeometryError):
            marginal(g, x)
    with pytest.raises(GeometryError):
        marginal(g, g.region)
    with pytest.raises(GeometryError):
        chain.marginals(range(4), [(0,), range(4)])
    assert not [key for key in chain._memo if key[0] == "marginal"]


def test_marginals_never_form_the_state():
    """A Gibbs state is its spectrum: reading marginals leaves rho unformed."""
    ia = _rand_ia(4)
    regions = RegionsABC.from_sizes(2, 2, 2)
    chain = Chain(ia)
    factorization_error(chain, regions)
    mutual_information(chain, regions)
    assert ("marginal", regions.all_sites, regions.all_sites) not in chain._memo


def test_marginal_checks_the_normalization():
    everything = tuple(range(6))
    chain = Chain(_rand_ia(2))
    spectrum = chain.spectrum(everything)
    (piece,) = spectrum.pieces
    scaled = dataclasses.replace(spectrum, pieces=(piece._replace(u=piece.u * 1.001),))
    chain._memo[("eigh", everything)] = scaled
    with pytest.raises(RuntimeError):
        chain.marginal(everything, (0, 5))
    with pytest.raises(RuntimeError):
        chain.marginal(everything, everything[1:])


def test_a_held_spectrum_is_read_once_for_every_marginal(monkeypatch):
    """With the Spectrum held, all new proper X are summed in one read of its
    parts, and the view that `gibbs` returns reads the Chain's own marginals."""
    gibbs_module = importlib.import_module("chainsep.gibbs")
    form, seen = gibbs_module._accumulate, []

    def recording(parts, region, xs, d):
        seen.append(list(xs))
        return form(parts, region, xs, d)

    regions = RegionsABC.from_sizes(1, 6, 1)
    xs = [regions.ac, regions.a, regions.b]
    chain = Chain(builtin_models("tfi", {"sites": 8}))
    g = gibbs(chain, regions.all_sites)
    monkeypatch.setattr(gibbs_module, "_accumulate", recording)
    rhos = chain.marginals(regions.all_sites, xs)
    assert seen == [xs]
    for x, rho in zip(xs, rhos):
        assert marginal(g, x) is rho
        assert marginal(g, x) is chain.marginal(regions.all_sites, x)
    assert seen == [xs]


# ---------------------------------------------------------------------------
# Block spectra: Chain.spectrum solves by exact structural blocks, each split
# by its symmetry group of the global spin flip and the site reflection
# ---------------------------------------------------------------------------

SYMMETRIC_MODELS = {
    "tfi": ("tfi", {"sites": 8}),
    "xxz": ("xxz", {"sites": 8, "jz": 0.5}),
    "xxz-9": ("xxz", {"sites": 9, "jz": 0.5}),
    "xxz-jz2": ("xxz", {"sites": 8, "jz": 2.0}),
    "xxz-field": ("xxz", {"sites": 8, "jz": 0.5, "field": 0.3}),
    "classical_ising": ("classical_ising", {"sites": 8}),
    "classical_ising-field": ("classical_ising", {"sites": 8, "field": 0.5}),
    "tfi-offgrid": ("tfi", {"sites": 10, "coupling": 0.679, "field": 1.14}),
    "tfi-offgrid-9": ("tfi", {"sites": 9, "coupling": 1.405, "field": 0.677}),
}
# the terms of every SYMMETRIC_MODELS chain are mirror images, but in these the
# float sums of H round differently on its two sides, so H != RHR bit for bit
ROUNDED_MIRROR = {"tfi-offgrid", "tfi-offgrid-9", "xxz-field"}


def _check_spectrum(h, spectrum):
    """The parts' eigenvalues, sorted, against a fresh eigvalsh of h, and the
    pieces, formed into V diag(w) V^dag and V V^dag, against h and 1."""
    w = _eigenvalues(spectrum)
    scale = max(1.0, float(np.abs(w).max()))
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    assert np.linalg.norm(spectrum.form(lambda w: w) - h) <= 1e-12 * scale
    assert np.linalg.norm(spectrum.form(np.ones_like) - np.eye(len(w))) <= 1e-12


def _reflected(h, local_dim, sites):
    """R h R, R the reflection e_i -> e_reverse(i) of `sites` sites."""
    reverse = np.arange(local_dim**sites).reshape((local_dim,) * sites).T.ravel()
    return h[np.ix_(reverse, reverse)]


@pytest.mark.parametrize("model", sorted(SYMMETRIC_MODELS))
def test_block_spectrum_matches_the_full_solve(model, monkeypatch):
    """Every block is split by the reflection and solved one sub-block at a
    time, on the mirror projection of H, which is H up to rounding."""
    ia = builtin_models(*SYMMETRIC_MODELS[model])
    n = len(ia.sites)
    assert ia.is_mirror_symmetric(range(n))
    h = hamiltonian(ia, range(n)).matrix
    assert np.array_equal(h, _reflected(h, 2, n)) == (model not in ROUNDED_MIRROR)
    inputs = record_eigh(monkeypatch)
    spectrum = Chain(ia).spectrum(range(n))
    # one matrix per solve, of side at most a quarter of the space plus half
    # its 2^ceil(n/2) palindromes
    bound = 2 ** (n - 2) + 2 ** ((n + 1) // 2 - 1)
    assert all(len(shape) == 2 and shape[0] <= bound for shape, _, _ in inputs)
    assert spectrum.form(lambda w: w).dtype == h.dtype
    _check_spectrum(h, spectrum)


def test_mirror_split_on_an_offset_region(monkeypatch):
    """The reflection of sites 3..9 of a 12-site chain maps position i to 6 - i."""
    ia = builtin_models("tfi", {"sites": 12, "coupling": 0.679, "field": 1.14})
    region = tuple(range(3, 10))
    assert ia.is_mirror_symmetric(region)
    h = hamiltonian(ia, region).matrix
    assert not np.array_equal(h, _reflected(h, 2, 7))
    inputs = record_eigh(monkeypatch)
    _check_spectrum(h, Chain(ia).spectrum(region))
    assert sorted(shape for shape, _, _ in inputs) == [(28, 28), (28, 28), (36, 36), (36, 36)]


def _spin_one(sites, dense):
    """A mirror-symmetric d = 3 chain: spin-1 XXZ with a single-ion term, which
    keeps S_z and the flip of each digit x -> 2 - x, or, if `dense`, the bond
    A (x) B plus its legs swapped, of two random complex Hermitian A, B, and a
    field F, which keep neither.  (B (x) A itself is not the swap bit for bit:
    complex products may round differently with the factors swapped.)"""
    if dense:
        a, b, f = (random_hermitian(np.random.default_rng(seed), 3) for seed in (1, 2, 3))
        ab = np.kron(a, b)
        bond, field = ab + ab.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9), f
    else:
        up, sz = np.diag([np.sqrt(2), np.sqrt(2)], 1), np.diag([1.0, 0.0, -1.0])
        bond = (np.kron(up, up.T) + np.kron(up.T, up)) / 2 + 0.5 * np.kron(sz, sz)
        field = 0.3 * sz @ sz
    terms = {(s, s + 1): bond for s in range(sites - 1)}
    terms.update({(s,): field for s in range(sites)})
    return Interaction(3, tuple(range(sites)), terms, 1)


@pytest.mark.parametrize("dense", [False, True])
def test_mirror_split_of_a_three_level_chain(dense, monkeypatch):
    """Digit reversal in base 3: on 5 sites, 27 palindromes and 108 pairs.  The
    dense chain is one block, split into 135 + 108; the spin-1 chain's S_z
    sectors are paired by the d-ary flip, and each is split alone."""
    ia = _spin_one(5, dense)
    assert ia.is_mirror_symmetric(range(5))
    h = hamiltonian(ia, range(5)).matrix
    inputs = record_eigh(monkeypatch)
    spectrum = Chain(ia).spectrum(range(5))
    _check_spectrum(h, spectrum)
    assert spectrum.form(lambda w: w).dtype == h.dtype
    shapes = [shape for shape, _, _ in inputs]
    if dense:
        assert sorted(shapes) == [(108, 108), (135, 135)]
    else:
        assert all(len(shape) == 2 for shape in shapes) and max(shapes)[0] < 51


PIECE_CASES = dict(
    {model: (SYMMETRIC_MODELS[model], None) for model in SYMMETRIC_MODELS},
    offset=(("tfi", {"sites": 12, "coupling": 0.679, "field": 1.14}), tuple(range(3, 10))),
    **{"spin-one": (False, None), "spin-one-dense": (True, None)},
)


@pytest.mark.parametrize("case", sorted(PIECE_CASES))
def test_each_sub_block_is_a_piece_of_its_own(case, monkeypatch):
    """Every stored u is one solved matrix, a sub-block of the block's
    symmetry group (of side at most a quarter of the space plus half its
    palindromes for the qubit chains), never a block's u filled from its
    sub-blocks: the u, a sector pair's counted once, are the eigh outputs,
    each on the ascending rows it touches.  The 1 x 1 blocks are the
    diagonal, with no solve, so a diagonal H has no pieces.  And no group of
    columns that `_columns` yields is wider than its piece, or holds more
    than ASSEMBLY_BAND numbers."""
    model, region = PIECE_CASES[case]
    ia = _spin_one(5, model) if case.startswith("spin-one") else builtin_models(*model)
    region = tuple(ia.sites) if region is None else region
    inputs = record_eigh(monkeypatch)
    spectrum, n = Chain(ia).spectrum(region), len(region)
    solved, rows = {}, [spectrum.diagonal[0]]
    for pc in spectrum.pieces:
        (m,) = pc.w.shape
        assert pc.u.shape == (m, m)
        assert ia.local_dim == 3 or m <= 2 ** (n - 2) + 2 ** ((n + 1) // 2 - 1)
        assert np.all(np.diff(pc.rows) > 0) and pc.orbit.max() < m
        assert pc.orbit.shape == pc.coef.shape == pc.rows.shape
        solved[id(pc.u)] = pc.u.shape
        rows.append(pc.rows)
    assert sorted(solved.values()) == sorted(shape for shape, _, _ in inputs)
    # every row of H is reached, by the diagonal or by a piece
    side = len(_eigenvalues(spectrum))
    assert np.array_equal(np.unique(np.concatenate(rows)), np.arange(side))
    if case.startswith("classical_ising"):
        assert spectrum.pieces == () and len(spectrum.diagonal[0]) == side
    at = np.arange(side)[None]
    groups = (group for pc in spectrum.pieces for group in _columns(pc, at))
    for pc in spectrum.pieces:
        left = pc.w.size
        while left:
            w, rows, s = next(groups)
            assert np.shares_memory(w, pc.w) and s.shape == (1, len(rows), len(w))
            assert w.size <= left and s.size <= ASSEMBLY_BAND
            left -= w.size
    assert next(groups, None) is None


def _dipole_chain():
    """A spin-1 chain with the palindromic hop S+ (x) S-^2 (x) S+, which keeps
    S_z and the dipole sum_i i m_i; the reflection does not keep the dipole."""
    up = np.diag([np.sqrt(2), np.sqrt(2)], 1)
    hop = np.kron(np.kron(up, up.T @ up.T), up)
    hop = hop + hop.reshape((3,) * 6).transpose(2, 1, 0, 5, 4, 3).reshape(27, 27)
    terms = {(s, s + 1, s + 2): hop + hop.T for s in range(3)}
    terms.update({(s,): np.diag([0.3, 0.0, 0.3]) for s in range(5)})
    return Interaction(3, tuple(range(5)), terms, 2)


def test_blocks_the_reflection_maps_apart_are_not_split(monkeypatch):
    """The dipole chain's sectors of side > 1 are 24 flip pairs.  The
    reflection maps 20 of them onto another sector, and each of those is
    solved whole: ten of side 3, five of 2, four of 4 and one of 6.  It
    maps the other four onto themselves and splits them: 3 into 2 + 1
    twice, 6 into 5 + 1, and 2 into 2 (both palindromes)."""
    ia = _dipole_chain()
    assert ia.is_mirror_symmetric(range(5))
    inputs = record_eigh(monkeypatch)
    _check_spectrum(hamiltonian(ia, range(5)).matrix, Chain(ia).spectrum(range(5)))
    whole = [3] * 10 + [2] * 5 + [4] * 4 + [6]
    split = [2, 1, 2, 1, 5, 1, 2]
    assert sorted(shape for shape, _, _ in inputs) == sorted((m, m) for m in whole + split)


SECTOR_CHAINS = {
    "tfi": lambda: builtin_models("tfi", {"sites": 8}),
    "xxz": lambda: builtin_models("xxz", {"sites": 8, "jz": 0.5}),
    "spin-one": lambda: _spin_one(5, False),
    "spin-one-dense": lambda: _spin_one(5, True),
}


@pytest.mark.parametrize("chain", sorted(SECTOR_CHAINS))
def test_kept_orbits_over_the_characters_fill_each_block(chain):
    """The orbits that each character of a block's group keeps, summed over
    the characters, are as many as the block's side, on every block of
    side > 1, and at least one block splits."""
    ia = SECTOR_CHAINS[chain]()
    n, d = len(ia.sites), ia.local_dim
    assert ia.is_mirror_symmetric(range(n))
    reverse = np.arange(d**n).reshape((d,) * n).T.ravel()
    gibbs_module = importlib.import_module("chainsep.gibbs")
    split = 0
    for c, flip, _ in gibbs_module._pieces(hamiltonian_entries(ia, range(n))):
        if len(c) > 1:
            kept = [rows.shape[1] for rows, _, _ in gibbs_module._sectors(c, d**n, flip, reverse)]
            assert sum(kept) == len(c)
            split += len(kept) > 1
    assert split


def test_mirror_test_reads_the_terms():
    """tfi, xxz and classical_ising pass on every interval; random models and
    a field on one site of tfi fail on each of two or more sites."""
    for family, params in (("tfi", {"coupling": 0.679, "field": 1.14}), ("xxz", {"jz": 0.5}),
                           ("classical_ising", {"field": 0.5})):
        ia = builtin_models(family, dict(params, sites=6))
        assert all(ia.is_mirror_symmetric(range(i, j)) for i in range(6) for j in range(i + 1, 7))
    for local_dim in (2, 3):
        ia = builtin_models("random", {"sites": 5, "local_dim": local_dim})
        intervals = [range(i, j) for i in range(5) for j in range(i + 2, 6)]
        assert not any(ia.is_mirror_symmetric(r) for r in intervals)
    terms = dict(builtin_models("tfi", {"sites": 6}).terms)
    terms[(2,)] = terms[(2,)] + 0.3 * PAULI_Z
    ia = Interaction(2, tuple(range(6)), terms, 1)
    assert not ia.is_mirror_symmetric(range(6)) and ia.is_mirror_symmetric(range(3, 6))
    # a bond X (x) Z is mirrored by Z (x) X on the image bond, not by itself
    xz, zx = np.kron(PAULI_X, PAULI_Z), np.kron(PAULI_Z, PAULI_X)
    chiral = Interaction(2, tuple(range(4)), {(0, 1): xz, (1, 2): xz, (2, 3): xz}, 1)
    assert not chiral.is_mirror_symmetric(range(4))
    xx = np.kron(PAULI_X, PAULI_X)
    ia = Interaction(2, tuple(range(4)), {(0, 1): xz, (1, 2): xx, (2, 3): zx}, 1)
    assert ia.is_mirror_symmetric(range(4))
    _check_spectrum(hamiltonian(ia, range(4)).matrix, Chain(ia).spectrum(range(4)))


def test_block_spectrum_solves_only_the_blocks(monkeypatch):
    inputs = record_eigh(monkeypatch)
    for params in ({"sites": 10}, {"sites": 10, "field": 0.5}):
        ia = builtin_models("classical_ising", params)
        spectrum = Chain(ia).spectrum(range(10))
        rows, _ = spectrum.diagonal
        assert spectrum.pieces == () and np.array_equal(rows, np.arange(2**10))
    assert inputs == []  # a diagonal H has only 1 x 1 blocks
    Chain(builtin_models("tfi", {"sites": 10})).spectrum(range(10))
    # one component, whose group {1, F, R, FR} splits it into four
    # character sub-blocks, each solved alone: no side above 272
    assert [shape for shape, _, _ in inputs] == [(272, 272), (240, 240), (256, 256), (256, 256)]


def test_block_spectrum_falls_back_when_a_symmetry_breaks(monkeypatch):
    # a longitudinal field on one site breaks the flip: one full solve
    ia = builtin_models("tfi", {"sites": 6})
    terms = dict(ia.terms)
    terms[(2,)] = terms[(2,)] + 0.3 * PAULI_Z
    ia = Interaction(2, ia.sites, terms, 1)
    assert not ia.is_mirror_symmetric(range(6))  # and the reflection with it
    h = hamiltonian(ia, range(6)).matrix
    inputs = record_eigh(monkeypatch)
    spectrum = Chain(ia).spectrum(range(6))
    assert inputs == [matrix_digest(h)]
    _check_spectrum(h, spectrum)

    # one stray off-diagonal pair joins two 1 x 1 blocks of a diagonal H
    stray = hamiltonian(
        builtin_models("classical_ising", {"sites": 4, "field": 0.5}), range(4)
    ).matrix.copy()
    stray[1, 6] = stray[6, 1] = 0.25
    feed_hamiltonian(monkeypatch, lambda r: stray)
    spectrum = Chain(_unmirrored(4)).spectrum(range(4))
    assert [shape for shape, _, _ in inputs[1:]] == [(2, 2)]
    _check_spectrum(stray, spectrum)

    # a block of odd side that the flip maps onto itself splits around the
    # fixed middle index: 13 pairs and it for +1, the 13 pairs for -1
    a = random_hermitian(np.random.default_rng(3), 27)
    odd = (a + a[::-1, ::-1]).real
    feed_hamiltonian(monkeypatch, lambda r: odd)
    inputs.clear()
    spectrum = Chain(_unmirrored(3, local_dim=3)).spectrum(range(3))
    assert [shape for shape, _, _ in inputs] == [(14, 14), (13, 13)]
    _check_spectrum(odd, spectrum)

    # between two S_z sectors of xxz, it merges them
    h = hamiltonian(builtin_models("xxz", {"sites": 4, "jz": 0.5}), range(4)).matrix.copy()
    assert len(np.unique(_components(entries_of(h)))) == 5
    h[0b0001, 0b0111] = h[0b0111, 0b0001] = 0.25
    assert len(np.unique(_components(entries_of(h)))) == 4


def _unmirrored(sites, local_dim=2):
    """An Interaction whose terms are not mirror images, so its spectra are
    not split by the reflection: for a test that feeds Chain.spectrum a
    matrix of its own in place of the Interaction's H."""
    ia = builtin_models("random", {"sites": sites, "range": 1, "local_dim": local_dim})
    assert not ia.is_mirror_symmetric(range(sites))
    return ia


def _complex_fold(sites):
    """A dense complex Hermitian H with H == H[::-1, ::-1] on `sites` qubits."""
    a = random_hermitian(np.random.default_rng(sites + 2), 2**sites)
    return a + a[::-1, ::-1]


def _patch_complex_fold(monkeypatch):
    feed_hamiltonian(monkeypatch, lambda r: _complex_fold(len(r)))


def test_block_spectrum_folds_a_complex_matrix(monkeypatch):
    """A dense complex Hermitian H with H == H[::-1, ::-1] is one block and
    folds: its two flip sectors are solved one after the other."""
    h = _complex_fold(5)
    _patch_complex_fold(monkeypatch)
    inputs = record_eigh(monkeypatch)
    spectrum = Chain(_unmirrored(5)).spectrum(range(5))
    assert [shape for shape, _, _ in inputs] == [(16, 16), (16, 16)]
    assert spectrum.form(lambda w: w).dtype == complex
    _check_spectrum(h, spectrum)


def test_block_spectrum_solves_each_sector_pair_once(monkeypatch):
    """The flip maps the S_z sector c of xxz onto N-1-c.  With no field the two
    blocks map exactly, and one solve serves both; a field breaks that, and
    both are solved.  The reflection maps each sector onto itself and splits
    it in two: 12 into 6 + 6, ..., 792 into 396 + 396; the sector 924, which
    the flip maps onto itself too, splits into 252, 210, 220 and 242."""
    inputs = record_eigh(monkeypatch)
    splits = ((6, 6), (36, 30), (110, 110), (255, 240), (396, 396))
    for params, k in (({"jz": 0.5}, 1), ({"jz": 0.5, "field": 0.3}, 2)):
        inputs.clear()
        Chain(builtin_models("xxz", dict(params, sites=12))).spectrum(range(12))
        want = [(m, m) for pair in splits for m in pair] * k \
            + [(m, m) for m in (252, 210, 220, 242)]
        assert sorted(shape for shape, _, _ in inputs) == sorted(want), params


def test_structured_spectra_form_no_dense_hamiltonian(monkeypatch):
    """Every block is gathered from H's entries; only a region that is one
    block with no fold and no mirror, a random model's, forms H whole, once."""
    formed, dense = [], Entries.dense

    def refuse(h):
        raise AssertionError(f"formed a dense {h.side} x {h.side} H")
    monkeypatch.setattr(Entries, "dense", refuse)
    for ia in (builtin_models("tfi", {"sites": 10}),
               builtin_models("xxz", {"sites": 10, "jz": 0.5}),
               builtin_models("xxz", {"sites": 10, "jz": 0.5, "field": 0.3}),
               builtin_models("classical_ising", {"sites": 10, "field": 0.5}),
               _spin_one(6, False), _spin_one(5, True)):
        n = len(ia.sites)
        assert len(_eigenvalues(Chain(ia).spectrum(range(n)))) == ia.local_dim**n
    monkeypatch.setattr(Entries, "dense", lambda h: formed.append(h.side) or dense(h))
    Chain(_rand_ia(1, sites=7)).spectrum(range(7))
    assert formed == [2**7]


def test_regions_outside_the_chain_are_rejected():
    """A site the chain does not have is an error, not a free spin."""
    ia = builtin_models("tfi", {"sites": 4})
    with pytest.raises(GeometryError):
        Chain(ia).spectrum((0, 1, 99))
    with pytest.raises(GeometryError):
        certify_marginal(ia, RegionsABC.from_sizes(1, 4, 1))


# every SYMMETRIC_MODELS spectrum is split by the reflection; the Gram route to
# ||E|| loses about 1e-12 relative on the off-grid tfi chains at 9-10 sites
# (before the split as after it), so they are read here at 8
ORACLE_MODELS = dict(SYMMETRIC_MODELS, **{
    "tfi-offgrid": ("tfi", {"sites": 8, "coupling": 0.679, "field": 1.14}),
    "tfi-offgrid-9": ("tfi", {"sites": 8, "coupling": 1.405, "field": 0.677}),
    "complex-fold": ("random", {"sites": 5, "range": 1}),
    "random": ("random", {"sites": 6, "range": 2, "strength": 2.0, "seed": 5}),
})
# with column groups of at most 64 numbers, every piece kind (whole, sector, mirror
# sub-block) is read in several groups, which the 8-site models never are
SMALL_GROUPS = "-small-groups"


@pytest.mark.parametrize("model", sorted(ORACLE_MODELS) + [m + SMALL_GROUPS for m in ORACLE_MODELS])
def test_every_reader_matches_the_dense_oracle(model, monkeypatch):
    """Marginals, the whole state, e^{tH}, log Z and the interface norms, all
    read from the pieces, against np.linalg.eigh of the assembled H.  Only
    `random` is one whole piece."""
    gibbs_module = importlib.import_module("chainsep.gibbs")
    if model.endswith(SMALL_GROUPS):
        model = model.removesuffix(SMALL_GROUPS)
        monkeypatch.setattr(gibbs_module, "ASSEMBLY_BAND", 64)
    if model == "complex-fold":
        _patch_complex_fold(monkeypatch)
    assemble = gibbs_module.hamiltonian_entries
    ia = builtin_models(*ORACLE_MODELS[model])
    n = len(ia.sites)
    everything = tuple(range(n))

    def dense(region):
        return np.linalg.eigh(assemble(ia, region).dense())

    chain = Chain(ia)
    spectrum = chain.spectrum(everything)
    assert all(pc.u.shape[-1] < 2**n for pc in spectrum.pieces) == (model != "random")
    at = np.arange(2**n).reshape(4, -1)
    groups = (group for pc in spectrum.pieces for group in _columns(pc, at))
    # a group, (layers, rows, columns), holds at most ASSEMBLY_BAND numbers, or one column
    assert all(s.ndim == 3 and (s.size <= gibbs_module.ASSEMBLY_BAND or s.shape[2] == 1)
               for _, _, s in groups)
    if gibbs_module.ASSEMBLY_BAND == 64 and spectrum.pieces:
        at = np.arange(2**n)[None]
        assert sum(1 for pc in spectrum.pieces for _ in _columns(pc, at)) > len(spectrum.pieces)
    w, v = dense(everything)
    p = np.exp(w[0] - w) / np.exp(w[0] - w).sum()
    rho = (v * p) @ v.conj().T
    g = gibbs(chain, everything)
    for x in ((1, 2), (0, n - 1), (0, 2, 3), everything[1:]):
        want = partial_trace(LocalOperator(everything, rho), tuple(set(everything) - set(x)))
        assert np.abs(marginal(g, x).matrix - want.matrix).max() <= 1e-12, x
    for t in (0.5, -1.0, 0.3 + 0.4j):
        want = (v * np.exp(t * w)) @ v.conj().T
        assert np.abs(chain.exp(everything, t).matrix - want).max() <= 1e-12 * np.abs(want).max()
    log_z = -w[0] + np.log(np.exp(w[0] - w).sum())
    assert abs(chain.log_partition_function(everything) - log_z) <= 1e-12 * max(1.0, abs(log_z))
    x, y = everything[:3], everything[3:]
    (wx, vx), (wy, vy) = dense(x), dense(y)
    for s in (0.5, 0.3 + 0.4j):
        # E = V diag(e^{-sw}) V^dag W diag(e^{s w_0}) W^dag, W = V_X (x) V_Y
        a = np.exp(-s * w)[:, None] * (v.conj().T @ np.kron(vx, vy)) \
            * np.kron(np.exp(s * wx), np.exp(s * wy))
        sv = np.linalg.svd(a, compute_uv=False)
        rep = expansional(chain, x, y, s)
        assert abs(rep.norm_e - sv[0]) <= 1e-12 * sv[0], s
        assert abs(rep.norm_e_inv - 1 / sv[-1]) <= 1e-12 / sv[-1], s


RANDOM_MODELS = [
    {"sites": 7, "range": 2, "strength": 1.5, "seed": 1},
    {"sites": 5, "range": 1, "strength": 2.0, "seed": 5, "local_dim": 3},
]


@pytest.mark.parametrize("params", RANDOM_MODELS)
def test_block_spectrum_leaves_random_models_on_the_full_solve(params):
    ia = builtin_models("random", params)
    n = len(ia.sites)
    spectrum = Chain(ia).spectrum(range(n))
    w_ref, v_ref = np.linalg.eigh(hamiltonian(ia, range(n)).matrix)
    # one piece, np.linalg.eigh's own (w, V)
    (piece,) = spectrum.pieces
    for got, want in ((piece.w, w_ref), (piece.u, v_ref)):
        assert matrix_digest(got) == matrix_digest(want)


@pytest.mark.parametrize("params", RANDOM_MODELS)
def test_every_reader_of_a_random_model_is_the_full_solve_bit_for_bit(params):
    """A region with no exact structure is one piece, np.linalg.eigh's own
    (w, V), so each reader does the arithmetic below on it, bit for bit."""
    ia = builtin_models("random", params)
    n, d = len(ia.sites), ia.local_dim
    everything, x, y = tuple(range(n)), (0, 1), tuple(range(2, n))
    w, v = np.linalg.eigh(hamiltonian(ia, everything).matrix)
    f = np.exp(w[0] - w)
    p = f / f.sum()
    chain = Chain(ia)
    g = gibbs(chain, everything)
    pairs = []
    for sub in ((1, 2), (0, n - 1), (0, 2, 3), everything[1:]):
        legs = list(sub) + [i for i in range(n + 1) if i not in sub]
        vt = v.reshape((d,) * n + (-1,)).transpose(legs)
        s = np.multiply(vt, np.sqrt(p), out=np.empty(vt.shape, vt.dtype)).reshape(d ** len(sub), -1)
        pairs.append((marginal(g, sub).matrix, s @ s.conj().T))
    for t in (0.5, -1.0, 0.3 + 0.4j):
        pairs.append((chain.exp(everything, t).matrix, (v * np.exp(t * w)) @ v.conj().T))
    pairs.append((chain.log_partition_function(everything), float(-w[0] + np.log(f.sum()))))
    (wx, vx), (wy, vy) = (np.linalg.eigh(hamiltonian(ia, r).matrix) for r in (x, y))

    def gram_eigvals(t):  # of F F^dag, F = (e^{tH_X} (x) e^{tH_Y}) e^{-tH_XY}
        f = (v * np.exp(-t * w)) @ v.conj().T
        f = ((vx * np.exp(t * wx)) @ vx.conj().T) @ f.reshape(len(wx), -1)
        f = ((vy * np.exp(t * wy)) @ vy.conj().T) @ f.reshape(len(wx), -1, len(w))
        f = f.reshape(len(w), len(w))
        return np.linalg.eigvalsh(f @ f.conj().T)
    for s in (0.5, 0.3 + 0.4j):
        lam = gram_eigvals(np.conj(s))
        if np.finfo(float).eps * len(w) * lam[-1] <= 1e-10 * lam[0]:
            norm_e_inv = 1.0 / math.sqrt(lam[0])
        else:
            norm_e_inv = math.sqrt(gram_eigvals(-s)[-1])
        rep = expansional(chain, x, y, s)
        pairs += [(rep.norm_e, math.sqrt(lam[-1])), (rep.norm_e_inv, norm_e_inv)]
    for i, (got, want) in enumerate(pairs):
        assert matrix_digest(np.asarray(got)) == matrix_digest(np.asarray(want)), i


STREAMED_MODELS = {
    "tfi": ("tfi", {"sites": 8}),
    "tfi-offgrid": ("tfi", {"sites": 9, "coupling": 0.679, "field": 1.14}),
    "xxz": ("xxz", {"sites": 8, "jz": 0.5}),
    "classical_ising": ("classical_ising", {"sites": 8, "field": 0.5}),
    "random": ("random", RANDOM_MODELS[0]),
    "random-d3": ("random", RANDOM_MODELS[1]),
}


@pytest.mark.parametrize("model", sorted(STREAMED_MODELS))
def test_streamed_marginals_are_the_held_ones_bit_for_bit(model):
    """A Chain that holds no Spectrum streams the pieces through the one sum
    that also reads a held Spectrum, so rho_X and log Z are the same bits on
    either path, whichever X are read together."""
    ia = builtin_models(*STREAMED_MODELS[model])
    n = len(ia.sites)
    everything = tuple(range(n))
    xs = [(0, n - 1), (0,), (1, 2), (0, 2, 3)]
    held = Chain(ia)
    g = gibbs(held, everything)
    streamed = Chain(ia).marginals(everything, xs)
    assert [matrix_digest(rho.matrix) for rho in streamed] == \
        [matrix_digest(marginal(g, x).matrix) for x in xs]
    one = Chain(ia)
    alone = one.marginal(everything, xs[2])
    assert matrix_digest(alone.matrix) == matrix_digest(streamed[2].matrix)
    assert one.log_partition_function(everything) == held.log_partition_function(everything)


def _held_spectra(chain):
    """The regions whose Spectrum the Chain's memo holds, after checking that it
    holds no Piece or Gibbs state outside one."""
    kept = list(chain._memo.values())
    assert not [v for v in kept if isinstance(v, (Piece, GibbsEnsemble))]
    assert not [v for v in kept if isinstance(v, tuple) and any(isinstance(p, Piece) for p in v)]
    return {key[1] for key, v in chain._memo.items() if isinstance(v, Spectrum)}


def test_a_streamed_read_holds_no_spectrum(monkeypatch):
    """After a read of marginals, the Chain's memo holds the marginals and
    the eigenvalues, and no Piece, Spectrum or Gibbs state of the region;
    log Z then solves nothing, and a read of V solves the region again."""
    ia = builtin_models("xxz", {"sites": 8, "jz": 0.5})
    regions = RegionsABC.from_sizes(1, 6, 1)
    chain = Chain(ia)
    chain.marginals(regions.all_sites, (regions.ac, regions.a, regions.b))
    assert _held_spectra(chain) == set()
    inputs = record_eigh(monkeypatch)
    log_z = chain.log_partition_function(regions.all_sites)
    chain.marginal(regions.all_sites, regions.ac)
    assert inputs == []
    assert log_z == Chain(ia).log_partition_function(regions.all_sites)
    chain.exp(regions.all_sites, 0.5)
    assert inputs


def test_log_z_is_a_streamed_read(monkeypatch):
    """log Z of a region that holds no Spectrum comes from a streamed read of
    its eigenvalues, which it records: the same bits as a held Spectrum's."""
    ia = builtin_models("xxz", {"sites": 8, "jz": 0.5})
    a, b = (0, 1, 2), (3, 4, 5, 6)
    chain, held = Chain(ia), Chain(ia)
    report = check_partition_ratios(chain, a, b)
    assert _held_spectra(chain) == set()
    for r in (a, b, a + b):
        held.spectrum(r)
    assert report == check_partition_ratios(held, a, b)
    inputs = record_eigh(monkeypatch)
    for r in (a, b, a + b):
        assert chain.log_partition_function(r) == held.log_partition_function(r)
    assert inputs == []


def test_certify_holds_only_the_spectra_of_the_clipped_sides():
    """certify_marginal streams every marginal and log Z it reads; only a_k and
    c_k, whose e^{H/2} `Chain.exp` forms, hold a Spectrum."""
    regions = RegionsABC.from_sizes(1, 6, 1)
    chain = Chain(builtin_models("tfi", {"sites": 8}))
    assert certify_marginal(chain, regions).attempted_k0
    assert _held_spectra(chain) == {(0,), (7,)}


PEAK = """
import json, sys, tracemalloc
from chainsep import Chain, RegionsABC, builtin_models, gibbs, marginal

def peak():  # VmHWM, in KiB: the peak RSS of this process since its exec
    return next(int(l.split()[1]) for l in open("/proc/self/status") if l.startswith("VmHWM"))

what, ia = sys.argv[1], builtin_models(*json.loads(sys.argv[3]))
n = len(ia.sites)
chain = Chain(ia, 2**n)
regions = RegionsABC.from_sizes(1, n - 2, 1)
if what == "form":  # solved before the peak is read, so that only form's arrays count
    chain.spectrum(range(n))
before = peak()
if sys.argv[2] == "traced":
    tracemalloc.start()
held = []
if what == "spectrum":
    held = [pc.u.nbytes for pc in chain.spectrum(range(n)).pieces]
elif what == "marginal":
    marginal(gibbs(chain, regions.all_sites), regions.ac)
elif what == "streamed":
    chain.marginal(regions.all_sites, regions.ac)
else:
    chain.exp(range(n), 0.5)
grown = tracemalloc.get_traced_memory()[1] if sys.argv[2] == "traced" else (peak() - before) * 1024
print(grown, *held)
"""


def _peak_growth(what, traced=False, model=("tfi", {"sites": 11})):
    """(peak growth in bytes, bytes of eigenvectors held by each piece) of a
    fresh process that reads the spectrum of `model`'s whole chain; for
    "marginal", rho_AC on 1|n-2|1 from the held Spectrum of `gibbs`; for
    "streamed", the same rho_AC from `Chain.marginal`, which holds none; or
    for "form", e^{H/2} over the whole chain after its spectrum: the growth
    of its peak RSS or, if `traced`, the tracemalloc peak of the arrays it
    allocates, which no allocator's heap layout moves.  (ru_maxrss of a child starts at the RSS
    of the process that forked it, so a large test process would hide the
    growth; VmHWM starts afresh.)"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PEAK, what, "traced" if traced else "rss", json.dumps(model)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    grown, *held = map(int, proc.stdout.split())
    return grown, held


N2_DOUBLES = 2048**2 * 8
MB = 2**20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_block_spectrum_peak_memory():
    """The n = 2048 spectrum of tfi keeps the u of its group's four
    sub-blocks (sides 528, 496, 528 and 496), sum m_t^2 = n^2/4 doubles, and
    no n x n matrix or half-size u is formed.  Each sub-block is gathered
    from H's entries and solved before the next, so the arrays peak (about
    0.33 n^2, by tracemalloc) at the last solve: three stored u, the last
    sub-block and its eigh output.  The RSS (about 0.65 n^2) adds eigh's copy
    of its input and LAPACK's 2 m^2 workspace, which tracemalloc does not see.
    Bounds: 0.75 and 0.4 n^2, each the reading plus about a fifth.  Filling
    each fold half's u from its two sub-blocks peaked at 0.92 n^2 (1.01 n^2
    traced); a full eigh with H still alive peaks at about 5 n^2: H, its copy,
    V and LAPACK's 2 n^2 workspace."""
    grown, held = _peak_growth("spectrum")
    assert held == [8 * m * m for m in (528, 496, 528, 496)]
    assert sum(held) <= 1.001 * N2_DOUBLES / 4
    assert grown <= 0.75 * N2_DOUBLES, grown / N2_DOUBLES
    traced, _ = _peak_growth("spectrum", traced=True)
    assert traced <= 0.4 * N2_DOUBLES, traced / N2_DOUBLES


# (model, RSS bound, traced bound) of a whole-chain Gibbs state and rho_AC off the tfi fold
MARGINAL_PEAKS = [
    (("classical_ising", {"sites": 12, "field": 0.5}), 8 * MB, 5 * MB),
    (("xxz", {"sites": 13, "jz": 0.5}), 64 * MB, 32 * MB),
]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_gibbs_marginal_peak_memory():
    """gibbs and rho_AC on 1|n-2|1 add nothing to the peak of the spectrum
    itself: `_columns` reads each piece on the rows it touches, in groups of
    at most ASSEMBLY_BAND numbers (2 MB of doubles).
    - tfi, 1|9|1 (n = 2048): 0.67 n^2 RSS and 0.33 n^2 traced, the readings
      of test_block_spectrum_peak_memory, so its bounds too.  Column groups of
      n x 528 doubles, each sub-block's rows scattered into all n rows, peaked
      at 0.91 n^2 (0.52 n^2 traced).
    - classical_ising with a field, 12 sites (n = 4096, all of it the
      spectrum's diagonal, added to rho_AC by one bincount): 3.6 MB RSS and
      4.2 MB traced, the spectrum's; bounds 8 and 5 MB.  Groups of n/2
      columns of n rows peaked at 65 MB.
    - xxz jz = 0.5, 13 sites (n = 8192, S_z sectors, each on its own rows):
      54 MB RSS and 27 MB traced, the spectrum's; bounds 64 and 32 MB, each
      the reading plus about a fifth.  Sectors scattered into all n rows
      peaked at 114 MB (75 MB traced)."""
    grown, _ = _peak_growth("marginal")
    assert grown <= 0.75 * N2_DOUBLES, grown / N2_DOUBLES
    traced, _ = _peak_growth("marginal", traced=True)
    assert traced <= 0.4 * N2_DOUBLES, traced / N2_DOUBLES
    for model, rss_bound, traced_bound in MARGINAL_PEAKS:
        grown, _ = _peak_growth("marginal", model=model)
        assert grown <= rss_bound, (model, grown / MB)
        traced, _ = _peak_growth("marginal", traced=True, model=model)
        assert traced <= traced_bound, (model, traced / MB)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_streamed_marginal_peak_memory():
    """`Chain.marginal` holds no Spectrum: it solves each piece, adds it to
    rho_AC on 1|n-2|1 and lets it go before the next solve, so its peak is
    one solve, not the stored pieces.
    - tfi, 1|9|1 (n = 2048): 0.51 n^2 RSS and 0.15 n^2 traced, against
      0.67 n^2 and 0.33 n^2 for the same read from a held Spectrum (above);
      bounds 0.6 and 0.25 n^2.
    - xxz jz = 0.5, 13 sites (n = 8192): 35 MB RSS and 13 MB traced, the
      solve of the half-filling sectors' second sub-block (side 848) next to
      H's entries, against 53 and 27 MB held; bounds 45 and 17 MB, each the
      reading plus about a fifth.  With a paired sector's images read after
      both of its own sub-blocks, the first was held through the second's
      solve: 18.3 MB traced."""
    grown, _ = _peak_growth("streamed")
    assert grown <= 0.6 * N2_DOUBLES, grown / N2_DOUBLES
    traced, _ = _peak_growth("streamed", traced=True)
    assert traced <= 0.25 * N2_DOUBLES, traced / N2_DOUBLES
    model = ("xxz", {"sites": 13, "jz": 0.5})
    grown, _ = _peak_growth("streamed", model=model)
    assert grown <= 45 * MB, grown / MB
    traced, _ = _peak_growth("streamed", traced=True, model=model)
    assert traced <= 17 * MB, traced / MB


def test_form_peak_memory():
    """`Spectrum.form` over all 11 sites of tfi (n = 2048, four pieces of
    side about n/4, each on all n rows) lifts each piece's product into the
    n x n output a band of at most ASSEMBLY_BAND numbers at a time: 1.19 n^2
    traced, the output and the last product; bound 1.4 n^2.  Taking each
    lifted product whole peaked at 2.2 n^2."""
    traced, _ = _peak_growth("form", traced=True)
    assert traced <= 1.4 * N2_DOUBLES, traced / N2_DOUBLES


def _crossing_norm_oracle(ia, a, b):
    """||H_AB - H_A - H_B|| from the three whole-region Hamiltonians."""
    ab = a + b
    return op_norm(hamiltonian(ia, ab) - embed(hamiltonian(ia, a) + hamiltonian(ia, b), ab))


CROSSING_MODELS = [
    ("zero", {"sites": 7}),
    ("tfi", {"sites": 7, "coupling": 1.3, "field": 0.7}),
    ("classical_ising", {"sites": 7, "field": 0.5}),
    ("xxz", {"sites": 7, "jz": 2.0, "field": 0.3}),
    ("random", {"sites": 7, "range": 1, "seed": 1}),
    ("random", {"sites": 7, "range": 2, "seed": 2}),
    ("random", {"sites": 5, "range": 1, "seed": 3, "local_dim": 3}),
    ("random", {"sites": 5, "range": 2, "seed": 4, "local_dim": 3}),
]


@pytest.mark.parametrize("family,params", CROSSING_MODELS)
def test_crossing_norm_matches_the_whole_region_formula(family, params):
    ia = builtin_models(family, params)
    sites = ia.sites
    for cut in range(1, len(sites)):
        a, b = sites[:cut], sites[cut:]
        want = _crossing_norm_oracle(ia, a, b)
        assert _crossing_norm(ia, a, b) == pytest.approx(want, rel=1e-12, abs=1e-14), cut


def _crossing_norm_three_assemblies(ia, a, b):
    """H_W - H_{W n A} - H_{W n B} on the window W of the 2r sites around the cut."""
    r = ia.interaction_range
    window = tuple(s for s in a + b if b[0] - r <= s < b[0] + r)
    w_a = tuple(s for s in window if s < b[0])
    w_b = tuple(s for s in window if s >= b[0])
    return op_norm(hamiltonian(ia, window) - (hamiltonian(ia, w_a) + hamiltonian(ia, w_b)))


def _lemma_corpus_models():
    """The first instances of verify-lemmas' default corpus at seed 1."""
    from chainsep.cli import _DEFAULTS, _random_spec

    specs = [_random_spec(100003 + i, _DEFAULTS["corpus"]) for i in range(12)]
    assert {spec.params["range"] for spec in specs} == {1, 2}
    return [spec.build() for spec in specs]


def test_crossing_norm_matches_three_window_assemblies():
    """On lemma-corpus models of range 1 and 2, tfi and xxz, for every cut of
    the chain and of the chain less its end sites (so some crossing terms reach
    outside AB): within 1e-13 of the three-assembly difference."""
    models = _lemma_corpus_models() + [
        builtin_models("tfi", {"sites": 7, "coupling": 1.3, "field": 0.7}),
        builtin_models("xxz", {"sites": 7, "jz": 2.0, "field": 0.3}),
    ]
    for ia in models:
        for sites in (ia.sites, ia.sites[1:-1]):
            for cut in range(1, len(sites)):
                a, b = sites[:cut], sites[cut:]
                want = _crossing_norm_three_assemblies(ia, a, b)
                got = _crossing_norm(ia, a, b)
                assert got == pytest.approx(want, rel=1e-13, abs=0), (ia.sites, a, b)


def test_crossing_norm_leaves_out_window_terms_that_do_not_cross():
    # tfi's fields lie in the window but do not cross: the norm is the bond's
    ia = builtin_models("tfi", {"sites": 6, "coupling": 1.3, "field": 40.0})
    assert _crossing_norm(ia, (0, 1, 2), (3, 4, 5)) == 1.3
    # scaling a range-2 model's terms on one side of the cut does not move it
    ia = builtin_models("random", {"sites": 6, "range": 2, "seed": 3})
    a, b = (0, 1, 2), (3, 4, 5)
    inflated = {t: m if t[0] < b[0] <= t[-1] else 1e3 * m for t, m in ia.terms.items()}
    big = Interaction(2, ia.sites, inflated, 2)
    assert {(1, 2), (3, 4), (1,), (4,)} <= ia.terms.keys()  # in the window (1, 2, 3, 4)
    assert _crossing_norm(big, a, b) == _crossing_norm(ia, a, b)


def test_entropy_examples():
    eye2 = LocalOperator((0,), np.eye(2) / 2)
    assert entropy(eye2) == pytest.approx(np.log(2))
    pure = LocalOperator((0,), np.diag([1.0, 0.0]))
    assert entropy(pure) == pytest.approx(0.0, abs=1e-12)


def _mutual_information_oracle(m, n_a, n_sites):
    """D(rho || rho_A x rho_C) of the oracle, for A the first n_a of n_sites."""
    sites = tuple(range(n_sites))
    rho_a = partial_trace_oracle(m, sites, sites[n_a:])
    rho_c = partial_trace_oracle(m, sites, sites[:n_a])
    return relative_entropy(m, np.kron(rho_a, rho_c))


def test_relative_entropy_examples():
    rho, sigma = np.diag([0.75, 0.25]), np.eye(2) / 2
    expect = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert relative_entropy(rho, sigma) == pytest.approx(expect)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    # I(A:C) = S(A) + S(C) - S(AC) is the relative entropy to the product of marginals
    rng = np.random.default_rng(37)
    for n_sites, n_a in ((2, 1), (3, 1), (3, 2), (4, 2)):
        m = random_state(rng, 2**n_sites)
        got = mutual_information_of(LocalOperator(tuple(range(n_sites)), m), range(n_a))
        assert abs(got - _mutual_information_oracle(m, n_a, n_sites)) <= 1e-13


def test_mutual_information_pure_bell():
    bell = np.zeros((4, 4))
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    bell = np.outer(v, v)
    rho = LocalOperator((0, 1), bell)
    assert mutual_information_of(rho, (0,)) == pytest.approx(2 * np.log(2))


def test_mutual_information_product_state_is_zero():
    ia = builtin_models("zero", {"sites": 4})
    regions = RegionsABC.from_sizes(1, 2, 1)
    assert mutual_information(ia, regions) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_decreases_with_gap():
    ia = builtin_models("tfi", {"sites": 8})
    vals = []
    for nb in (1, 2, 3):
        regions = RegionsABC.from_sizes(1, nb, 1)
        vals.append(mutual_information(ia, regions))
    assert vals[0] > vals[1] > vals[2] > 0


def test_partition_ratio_report_random_models():
    for seed in range(5):
        ia = _rand_ia(seed, sites=6)
        rep = check_partition_ratios(ia, (0, 1, 2), (3, 4, 5))
        assert rep.all_ok, (seed, rep)


def test_partition_ratios_hold_where_z_overflows():
    # log Z is 700-2300 on these regions, so Z itself is inf; the three
    # inequality chains still hold and are checked in logs
    ia = _rand_ia(0, sites=8, strength=2000.0)
    rep = check_partition_ratios(ia, (0, 1, 2, 3), (4, 5, 6, 7))
    assert Chain(ia).log_partition_function(range(8)) > math.log(np.finfo(float).max)
    assert rep.all_ok, rep


def test_gibbs_quantities_at_a_coupling_where_z_overflows():
    """beta is absorbed into J, so J = 1200 is a valid input; log Z = 950 puts
    Z and e^{-w_min} far beyond the float range, and every Gibbs quantity is
    still served from the shifted spectrum."""
    ia = _rand_ia(0, strength=1200.0)
    chain = Chain(ia)
    regions = RegionsABC.from_sizes(2, 2, 2)
    g = gibbs(chain, range(6))
    lam = np.linalg.eigvalsh(hamiltonian(ia, range(6)).matrix)
    want = partial_trace(gibbs_state_oracle(ia, range(6)), (5,)).matrix
    assert np.abs(marginal(g, range(5)).matrix - want).max() < 1e-12
    assert marginal(g, (0, 5)).trace().real == pytest.approx(1.0)
    assert np.isfinite(mutual_information(chain, regions))
    err = factorization_error(chain, regions)
    assert np.isfinite(err.op_norm_err) and np.isfinite(err.trace_norm_err)
    assert check_partition_ratios(chain, (0, 1, 2), (3, 4, 5)).all_ok

    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        log_z = mpmath.log(mpmath.fsum(mpmath.exp(-mpmath.mpf(float(x))) for x in lam))
        assert log_z > 900
        assert abs(chain.log_partition_function(range(6)) - log_z) <= 1e-12 * abs(log_z)


def test_mutual_information_against_mpmath():
    """On the three rho_AC of configs/random_decay.json (random, 2|3..5|2),
    I(A:C) is within 2e-15 absolute of the exact I(A:C) of the float rho_AC,
    from 50-digit spectra of rho_AC and of its partial traces."""
    mpmath = pytest.importorskip("mpmath")
    config = Path(__file__).resolve().parent.parent / "configs" / "random_decay.json"
    cfg = json.loads(config.read_text())
    spec = ModelSpec.from_dict(cfg["model"])

    def exact_entropy(m):
        w = mpmath.eighe(m, eigvals_only=True)
        return -mpmath.fsum(x * mpmath.log(x) for x in w)

    for n_b in cfg["geometry"]["b"]:
        chain = Chain(dataclasses.replace(spec, sites=2 + n_b + 2).build())
        regions = RegionsABC.from_sizes(2, n_b, 2)
        rho = chain.marginal(regions.all_sites, regions.ac).matrix
        with mpmath.workdps(50):
            m, rho_a, rho_c = mpmath.matrix(rho.tolist()), mpmath.matrix(4, 4), mpmath.matrix(4, 4)
            for i, j, k in itertools.product(range(4), repeat=3):  # exact sums of floats
                rho_a[i, j] += m[4 * i + k, 4 * j + k]
                rho_c[i, j] += m[4 * k + i, 4 * k + j]
            want = exact_entropy(rho_a) + exact_entropy(rho_c) - exact_entropy(m)
        got = mutual_information(chain, regions)
        assert abs(got - float(want)) <= 2e-15, (n_b, got, float(want))


def test_partition_size_bounds_catch_understated_strength(monkeypatch):
    # with J = 200 the bounds exp((log 2 +- J)|R|) are [0, inf] in floats, so
    # only a log-domain comparison sees that log Z_AB ~ 2281 exceeds 1606
    ia = _rand_ia(0, sites=8, strength=2000.0)
    monkeypatch.setattr(Interaction, "strength", property(lambda self: 200.0))
    rep = check_partition_ratios(ia, (0, 1, 2, 3), (4, 5, 6, 7))
    assert not rep.size_bounds_ok, rep


def test_partition_ratio_adjacency_required():
    ia = builtin_models("tfi", {"sites": 6})
    with pytest.raises(GeometryError):
        check_partition_ratios(ia, (0, 1), (3, 4))
    # an empty region is a geometry error too, not an IndexError
    for a, b in (((), (0, 1)), ((0,), ())):
        with pytest.raises(GeometryError):
            check_partition_ratios(ia, a, b)


def test_factorization_error_zero_for_free_model():
    ia = builtin_models("zero", {"sites": 5})
    err = factorization_error(ia, RegionsABC.from_sizes(2, 1, 2))
    assert err.op_norm_err < 1e-14
    assert err.trace_norm_err < 1e-13


def test_pinsker_style_bound():
    # trace-norm distance to the product marginal vs mutual information
    for seed in range(5):
        ia = _rand_ia(seed, sites=6)
        regions = RegionsABC.from_sizes(2, 2, 2)
        mi = mutual_information(ia, regions)
        err = factorization_error(ia, regions)
        assert 0.5 * err.trace_norm_err**2 <= mi + 1e-12, seed


def _expansionals(chain):
    return {k: v for k, v in chain._memo.items() if k[0] == "expansional"}


def _floor_log_bounds(ia, regions):
    """(log of the marginal floor's bound at the measured g, at g = 1, and
    the two expansionals at s = -1/2 that g is measured from), on a fresh
    Chain."""
    a, b, c = regions.a, regions.b, regions.c
    fresh = Chain(ia)
    g = _uniform((expansional(fresh, a, b, -0.5), expansional(fresh, a + b, c, -0.5)))
    assert math.isfinite(g) and g >= 1.0
    d, j, r = ia.local_dim, ia.strength, ia.interaction_range
    log_bound, log_bound_at_1 = (4 * log_g + 2 * r * j + (2 * j + math.log(d)) * len(b)
                                 for log_g in (math.log(g), 0.0))
    return log_bound, log_bound_at_1, _expansionals(fresh)


def test_marginal_floor_bound():
    for seed in range(3):
        assert marginal_floor_ok(_rand_ia(seed, sites=6), RegionsABC.from_sizes(2, 2, 2)), seed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "family, params, geometry, ok",
    [
        # min eig(rho_B) is rounding noise at these couplings (of order 1e-18
        # to 1e-22, of either sign, as the marginal's sums round), so the
        # check is held to the m it read: failed if m <= 0, else -log m
        # against the log of the bound
        ("tfi", {"coupling": 20.0}, (1, 4, 1), None),
        ("xxz", {"jz": 20.0}, (1, 4, 1), None),
        # the bound exceeds the float range; compared as logs, it still holds
        ("tfi", {"coupling": 40.0}, (1, 3, 1), True),
    ],
)
def test_marginal_floor_is_decided_in_the_log_domain(family, params, geometry, ok):
    ia = builtin_models(family, {"sites": sum(geometry), **params})
    regions = RegionsABC.from_sizes(*geometry)
    chain = Chain(ia)
    got = marginal_floor_ok(chain, regions)
    m = min_eig(chain.marginal(regions.all_sites, regions.b))
    log_bound, _, _ = _floor_log_bounds(ia, regions)
    if m <= 0:
        assert ok is None and got is False
    else:
        assert got is (-math.log(m) <= log_bound + math.log1p(1e-9))
        assert ok in (None, got)
    if ok:
        assert log_bound > math.log(np.finfo(float).max)


def test_marginal_floor_fails_on_a_marginal_that_is_not_positive():
    """min eig(rho_B) <= 0 fails the check, however large the bound, and g is
    not measured: rho_B is put in the Chain's memo beforehand, a matrix of
    trace 1 with one eigenvalue -1e-12."""
    ia = builtin_models("tfi", {"sites": 5})
    regions = RegionsABC.from_sizes(1, 3, 1)
    chain = Chain(ia)
    rho_b = LocalOperator(regions.b, np.diag([-1e-12, *np.full(7, (1 + 1e-12) / 7)]))
    chain._memo[("marginal", regions.all_sites, regions.b)] = rho_b
    assert min_eig(chain.marginal(regions.all_sites, regions.b)) < 0
    assert marginal_floor_ok(chain, regions) is False
    assert not _expansionals(chain)


def test_marginal_floor_measures_g_only_when_g_one_does_not_decide():
    """Where g = 1 decides, g is not measured.  With min eig(rho_B) between
    the g = 1 bound and the measured one, the measured g decides: ok, and just
    past the measured bound, not ok.  g is the one of the two expansionals at
    s = -1/2, bit for bit."""
    ia = builtin_models("tfi", {"sites": 5})
    regions = RegionsABC.from_sizes(1, 3, 1)
    b = regions.b
    log_bound, log_bound_at_1, measured = _floor_log_bounds(ia, regions)
    assert log_bound - log_bound_at_1 > 0.1 and len(measured) == 2
    for m, ok, read in ((math.exp(-log_bound_at_1) * (1 + 1e-8), True, {}),
                        (math.exp(-(log_bound + log_bound_at_1) / 2), True, measured),
                        (math.exp(-log_bound) * (1 - 1e-8), False, measured)):
        chain = Chain(ia)
        rho_b = LocalOperator(b, np.diag([m, *np.full(7, (1 - m) / 7)]))
        chain._memo[("marginal", regions.all_sites, b)] = rho_b
        assert min_eig(chain.marginal(regions.all_sites, b)) == m
        assert marginal_floor_ok(chain, regions) is ok
        assert _expansionals(chain) == read, m


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_relative_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_state(rng, 4), random_state(rng, 4)
    assert relative_entropy(rho, sigma) >= -1e-10
    want = _mutual_information_oracle(rho, 1, 2)
    assert want >= -1e-10
    assert abs(mutual_information_of(LocalOperator((0, 1), rho), (0,)) - want) <= 1e-13


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_entropy_subadditive(seed):
    rng = np.random.default_rng(seed)
    rho = LocalOperator((0, 1), random_state(rng, 4))
    s_ab = entropy(rho)
    s_a = entropy(partial_trace(rho, (1,)))
    s_b = entropy(partial_trace(rho, (0,)))
    assert s_ab <= s_a + s_b + 1e-10
    assert mutual_information_of(rho, (0,)) == pytest.approx(
        s_a + s_b - s_ab, abs=1e-9
    )
