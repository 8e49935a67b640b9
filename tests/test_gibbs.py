import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsep import (
    BudgetError,
    GeometryError,
    Interaction,
    LocalOperator,
    RegionsABC,
    builtin_models,
    check_partition_ratios,
    correlation,
    entropy,
    factorization_error,
    gibbs,
    marginal,
    marginal_inverse_norm,
    mutual_information,
    mutual_information_of,
    partial_trace,
    partition_function,
    relative_entropy,
    trace_norm,
)
from chainsep.model import PAULI_Z

from helpers import random_state


def _rand_ia(seed, sites=6, rng=2, strength=2.0):
    return builtin_models(
        "random", {"sites": sites, "range": rng, "strength": strength, "seed": seed}
    )


def test_partition_function_zero_interaction():
    ia = builtin_models("zero", {"sites": 5})
    assert partition_function(ia, range(5)) == pytest.approx(2**5)


def test_partition_function_single_field():
    # H = z-field of weight 0.3 on one site: Z = e^{-0.3} + e^{0.3}
    ia = Interaction(2, (0,), {(0,): 0.3 * PAULI_Z}, 0)
    assert partition_function(ia, (0,)) == pytest.approx(2 * np.cosh(0.3))


def test_gibbs_state_is_normalized_and_psd():
    ia = _rand_ia(3)
    g = gibbs(ia, range(6))
    assert g.rho.trace().real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(g.rho.matrix).min() > 0
    assert g.z == pytest.approx(partition_function(ia, range(6)))


def test_budget_enforced():
    ia = builtin_models("tfi", {"sites": 8})
    with pytest.raises(BudgetError):
        gibbs(ia, range(8), budget=128)


def test_marginal_consistency():
    ia = _rand_ia(5)
    g = gibbs(ia, range(6))
    m = marginal(g, (1, 2))
    again = partial_trace(g.rho, (0, 3, 4, 5))
    assert np.abs(m.matrix - again.matrix).max() < 1e-14
    assert m.trace().real == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        marginal(g, (7,))


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


def test_correlation_bounded_by_trace_distance():
    ia = builtin_models("tfi", {"sites": 6})
    regions = RegionsABC.from_sizes(2, 2, 2)
    obs_a = LocalOperator((0,), PAULI_Z)
    obs_c = LocalOperator((5,), PAULI_Z)
    corr = correlation(ia, regions, obs_a, obs_c)
    err = factorization_error(ia, regions)
    assert abs(corr) <= err.trace_norm_err + 1e-12


def test_correlation_support_validation():
    ia = builtin_models("tfi", {"sites": 6})
    regions = RegionsABC.from_sizes(2, 2, 2)
    obs = LocalOperator((2,), PAULI_Z)
    with pytest.raises(GeometryError):
        correlation(ia, regions, obs, obs)


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
