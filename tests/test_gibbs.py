import dataclasses
import importlib
import inspect
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
    RegionsABC,
    builtin_models,
    check_partition_ratios,
    embed,
    entropy,
    factorization_error,
    gibbs,
    hamiltonian,
    herm_exp,
    identity,
    marginal,
    marginal_inverse_norm,
    min_eig,
    mutual_information,
    mutual_information_of,
    op_norm,
    partial_trace,
    relative_entropy,
)
from chainsep.gibbs import DEFAULT_BUDGET, _components, _crossing_norm
from chainsep.model import PAULI_Z

from helpers import matrix_digest, random_hermitian, random_state, record_eigh


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
    assert g.rho.trace().real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(g.rho.matrix).min() > 0
    assert g.p.sum() == pytest.approx(1.0)
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
    for module in ("chainsep.gibbs", "chainsep.model"):
        monkeypatch.setattr(
            importlib.import_module(module), "hamiltonian", lambda *a: assembled.append(a)
        )
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
    # contiguous, A u C, a single site, all sites but one
    for x in ((1, 2), (0, n - 1), (2,), tuple(range(1, n))):
        m = marginal(g, x)
        again = partial_trace(g.rho, tuple(s for s in range(n) if s not in x))
        assert m.support == again.support
        assert m.matrix.dtype == g.rho.matrix.dtype
        assert np.abs(m.matrix - again.matrix).max() < 1e-13, x
        assert m.trace().real == pytest.approx(1.0)
    assert marginal(g, range(n)) is g.rho
    with pytest.raises(GeometryError):
        marginal(g, (7,))


def test_marginals_never_form_the_state():
    """A Gibbs state is its spectrum: reading marginals leaves rho unformed."""
    ia = _rand_ia(4)
    regions = RegionsABC.from_sizes(2, 2, 2)
    chain = Chain(ia)
    factorization_error(chain, regions)
    mutual_information(chain, regions)
    assert "rho" not in vars(chain.gibbs(regions.all_sites))


def test_marginal_checks_the_normalization():
    g = gibbs(_rand_ia(2), range(6))
    bad = dataclasses.replace(g, v=g.v * 1.001)
    with pytest.raises(RuntimeError):
        marginal(bad, (0, 5))
    with pytest.raises(RuntimeError):
        bad.rho


# ---------------------------------------------------------------------------
# Block spectra: Chain.spectrum solves by exact structural blocks and folds
# the global spin flip
# ---------------------------------------------------------------------------

SYMMETRIC_MODELS = {
    "tfi": ("tfi", {"sites": 8}),
    "xxz": ("xxz", {"sites": 8, "jz": 0.5}),
    "classical_ising": ("classical_ising", {"sites": 8}),
    "classical_ising-field": ("classical_ising", {"sites": 8, "field": 0.5}),
}


def _check_spectrum(h, w, v):
    """(w, V) against a fresh eigvalsh of h, and as a decomposition of h."""
    scale = max(1.0, float(np.abs(w).max()))
    assert np.all(np.diff(w) >= 0)
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    assert np.linalg.norm(h @ v - v * w) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(w))) <= 1e-12


@pytest.mark.parametrize("model", sorted(SYMMETRIC_MODELS))
def test_block_spectrum_matches_the_full_solve(model, monkeypatch):
    ia = builtin_models(*SYMMETRIC_MODELS[model])
    n = len(ia.sites)
    h = hamiltonian(ia, range(n)).matrix
    inputs = record_eigh(monkeypatch)
    w, v = Chain(ia).spectrum(range(n))
    assert all(shape[-1] < 2**n for shape, _, _ in inputs)  # no full solve
    assert v.dtype == h.dtype
    _check_spectrum(h, w, v)


def test_block_spectrum_solves_only_the_blocks(monkeypatch):
    inputs = record_eigh(monkeypatch)
    for params in ({"sites": 10}, {"sites": 10, "field": 0.5}):
        ia = builtin_models("classical_ising", params)
        w, v = Chain(ia).spectrum(range(10))
        assert np.array_equal(np.abs(v), np.abs(v) > 0)  # a permutation
    assert inputs == []  # a diagonal H has only 1 x 1 blocks
    Chain(builtin_models("tfi", {"sites": 10})).spectrum(range(10))
    # one component, folded by the flip into two stacked halves
    assert [shape for shape, _, _ in inputs] == [(2, 2**9, 2**9)]


def test_block_spectrum_falls_back_when_a_symmetry_breaks(monkeypatch):
    # a longitudinal field on one site breaks the flip: one full solve
    ia = builtin_models("tfi", {"sites": 6})
    terms = dict(ia.terms)
    terms[(2,)] = terms[(2,)] + 0.3 * PAULI_Z
    ia = Interaction(2, ia.sites, terms, 1)
    h = hamiltonian(ia, range(6)).matrix
    inputs = record_eigh(monkeypatch)
    w, v = Chain(ia).spectrum(range(6))
    assert inputs == [matrix_digest(h)]
    _check_spectrum(h, w, v)

    # one stray off-diagonal pair joins two 1 x 1 blocks of a diagonal H
    ia = builtin_models("classical_ising", {"sites": 4, "field": 0.5})
    stray = hamiltonian(ia, range(4)).matrix.copy()
    stray[1, 6] = stray[6, 1] = 0.25
    gibbs_module = importlib.import_module("chainsep.gibbs")
    monkeypatch.setattr(
        gibbs_module, "hamiltonian", lambda ia, r: LocalOperator(r, stray.copy())
    )
    w, v = Chain(ia).spectrum(range(4))
    assert [shape for shape, _, _ in inputs[1:]] == [(1, 2, 2)]
    _check_spectrum(stray, w, v)

    # between two S_z sectors of xxz, it merges them
    h = hamiltonian(builtin_models("xxz", {"sites": 4, "jz": 0.5}), range(4)).matrix.copy()
    assert len(_components(h)) == 5
    h[0b0001, 0b0111] = h[0b0111, 0b0001] = 0.25
    assert len(_components(h)) == 4


def test_block_spectrum_folds_a_complex_matrix(monkeypatch):
    """A dense complex Hermitian H with H == H[::-1, ::-1] is one block and folds."""
    a = random_hermitian(np.random.default_rng(7), 32)
    h = a + a[::-1, ::-1]
    monkeypatch.setattr(
        importlib.import_module("chainsep.gibbs"), "hamiltonian",
        lambda ia, r: LocalOperator(r, h.copy()),
    )
    inputs = record_eigh(monkeypatch)
    w, v = Chain(builtin_models("zero", {"sites": 5})).spectrum(range(5))
    assert [shape for shape, _, _ in inputs] == [(2, 16, 16)]
    assert v.dtype == complex
    _check_spectrum(h, w, v)


@pytest.mark.parametrize("params", [
    {"sites": 7, "range": 2, "strength": 1.5, "seed": 1},
    {"sites": 5, "range": 1, "strength": 2.0, "seed": 5, "local_dim": 3},
])
def test_block_spectrum_leaves_random_models_on_the_full_solve(params):
    ia = builtin_models("random", params)
    n = len(ia.sites)
    w, v = Chain(ia).spectrum(range(n))
    w_ref, v_ref = np.linalg.eigh(hamiltonian(ia, range(n)).matrix)
    assert matrix_digest(w) == matrix_digest(w_ref)
    assert matrix_digest(v) == matrix_digest(v_ref)


SPECTRUM_PEAK = """
from chainsep import Chain, builtin_models

def peak():  # VmHWM, in KiB: the peak RSS of this process since its exec
    return next(int(l.split()[1]) for l in open("/proc/self/status") if l.startswith("VmHWM"))

ia = builtin_models("tfi", {"sites": 11})
before = peak()
Chain(ia).spectrum(range(11))
print(peak() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_block_spectrum_peak_memory():
    """The n = 2048 spectrum of tfi peaks at most 3 n^2 doubles above the
    process before it, the result (w, V) included.  A full eigh with H still
    alive peaks at about 5 n^2: H, its copy, V and LAPACK's 2 n^2 workspace.
    (ru_maxrss of a child starts at the RSS of the process that forked it, so
    a large test process would hide the growth; VmHWM starts afresh.)"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SPECTRUM_PEAK], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout) * 1024
    assert grown <= 3 * 2048**2 * 8, grown


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


def test_entropy_examples():
    eye2 = LocalOperator((0,), np.eye(2) / 2)
    assert entropy(eye2) == pytest.approx(np.log(2))
    pure = LocalOperator((0,), np.diag([1.0, 0.0]))
    assert entropy(pure) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_examples():
    rho = LocalOperator((0,), np.diag([0.75, 0.25]))
    sigma = LocalOperator((0,), np.eye(2) / 2)
    expect = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
    assert relative_entropy(rho, sigma) == pytest.approx(expect)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


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
    assert rep.z_ab == np.inf
    assert rep.all_ok, rep


def test_gibbs_quantities_at_a_coupling_where_z_overflows():
    """beta is absorbed into J, so J = 1200 is a valid input; log Z = 950 puts
    Z and e^{-w_min} far beyond the float range, and every Gibbs quantity is
    still served from the shifted spectrum."""
    ia = _rand_ia(0, strength=1200.0)
    chain = Chain(ia)
    regions = RegionsABC.from_sizes(2, 2, 2)
    g = gibbs(chain, range(6))
    h = hamiltonian(ia, range(6))
    lam = np.linalg.eigvalsh(h.matrix)
    want = herm_exp(h - lam[0] * identity(range(6)), -1.0).matrix
    assert np.abs(g.rho.matrix - want / np.trace(want).real).max() < 1e-12
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


def test_marginal_floor_bound():
    for seed in range(3):
        ia = _rand_ia(seed, sites=6)
        rep = marginal_inverse_norm(ia, RegionsABC.from_sizes(2, 2, 2))
        assert rep.ok, (seed, rep)
        assert rep.g_emp >= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "family, params, geometry, ok",
    [
        # min eig(rho_B) rounds below 0 (-7.4e-20 and -5.4e-17): no finite
        # inverse norm, so the check fails and reports inf
        ("tfi", {"coupling": 20.0}, (1, 4, 1), False),
        ("xxz", {"jz": 20.0}, (1, 4, 1), False),
        # the bound exceeds the float range; compared as logs, it still holds
        ("tfi", {"coupling": 40.0}, (1, 3, 1), True),
    ],
)
def test_marginal_floor_is_decided_in_the_log_domain(family, params, geometry, ok):
    ia = builtin_models(family, {"sites": sum(geometry), **params})
    regions = RegionsABC.from_sizes(*geometry)
    rep = marginal_inverse_norm(ia, regions)
    assert rep.ok is ok
    m = min_eig(Chain(ia).marginal(regions.all_sites, regions.b))
    if ok:
        assert m > 0 and rep.inv_norm == 1.0 / m and rep.bound == math.inf
    else:
        assert m <= 0 and rep.inv_norm == math.inf and math.isfinite(rep.bound)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_relative_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = LocalOperator((0, 1), random_state(rng, 4))
    sigma = LocalOperator((0, 1), random_state(rng, 4))
    assert relative_entropy(rho, sigma) >= -1e-10


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
