import dataclasses
import importlib
import inspect

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
    marginal,
    marginal_inverse_norm,
    mutual_information,
    mutual_information_of,
    op_norm,
    partial_trace,
    relative_entropy,
)
from chainsep.gibbs import DEFAULT_BUDGET, _crossing_norm
from chainsep.model import PAULI_Z

from helpers import random_state


def _rand_ia(seed, sites=6, rng=2, strength=2.0):
    return builtin_models(
        "random", {"sites": sites, "range": rng, "strength": strength, "seed": seed}
    )


def test_partition_function_zero_interaction():
    ia = builtin_models("zero", {"sites": 5})
    assert Chain(ia).partition_function(range(5)) == pytest.approx(2**5)


def test_partition_function_single_field():
    # H = z-field of weight 0.3 on one site: Z = e^{-0.3} + e^{0.3}
    ia = Interaction(2, (0,), {(0,): 0.3 * PAULI_Z}, 0)
    assert Chain(ia).partition_function((0,)) == pytest.approx(2 * np.cosh(0.3))


def test_gibbs_state_is_normalized_and_psd():
    ia = _rand_ia(3)
    g = gibbs(ia, range(6))
    assert g.rho.trace().real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(g.rho.matrix).min() > 0
    assert g.z == pytest.approx(Chain(ia).partition_function(range(6)))


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
