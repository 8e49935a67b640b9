"""End-to-end acceptance gate.

Each test covers one headline property of the library and reports a single
PASS/FAIL line on the live terminal (capture disabled for that line only):

  1. sudden death of negativity for the transverse-field Ising chain
  2. telescoping reconstruction of the conjugated marginal
  3. constructive decomposition of the truncated marginal
  4. factorial decay of the telescoping tail terms
  5. inequality suites on a random corpus (100 instances each)
  6. separability ball around the identity vs the exact PPT test
  7. brute-force oracle equivalence for the tensor primitives
"""
import itertools
import time

import numpy as np
import pytest

from chainsep import (
    LocalOperator,
    ModelSpec,
    RegionsABC,
    builtin_models,
    ball_radius,
    check_partition_ratios,
    contraction_check,
    covering_bound,
    decompose_truncated_marginal,
    embed,
    exact_sep_test,
    factorization_error,
    gibbs,
    herm_exp,
    identity,
    marginal,
    marginal_inverse_norm,
    mutual_information,
    negativity,
    op_norm,
    partial_trace,
    partial_transpose,
    tail_norm_bound,
    tail_term,
    telescope_verify,
    trace_norm,
)
from chainsep.separability import VERDICT_SEPARABLE
from helpers import (
    conjugated_marginals_oracle,
    core_split_rel_err,
    embed_oracle,
    expm_oracle,
    partial_trace_oracle,
    partial_transpose_oracle,
    random_hermitian,
    random_state,
)


def _report(capfd, num: int, label: str, ok: bool):
    with capfd.disabled():
        print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def _corpus():
    """20 seeded finite-range random models: r <= 2, J <= 3, n in 8..9."""
    specs = []
    for i in range(20):
        r = 1 + (i % 2)
        j = 1.5 if i % 3 else 3.0
        n = 8 + (i % 2)
        specs.append(ModelSpec("random", {"range": r, "strength": j}, n, seed=i))
    return specs


def test_acceptance_1_sudden_death(capfd):
    start = time.monotonic()
    negs = []
    for nb in range(1, 9):  # total length nb + 2 <= 10
        ia = builtin_models("tfi", {"sites": nb + 2})
        regions = RegionsABC.from_sizes(1, nb, 1)
        g = gibbs(ia, regions.all_sites)
        rho_ac = marginal(g, regions.ac)
        negs.append(negativity(rho_ac, (regions.a, regions.c)).negativity)
    # first gap size from which negativity stays below threshold for the scan
    ell_emp = None
    for i, v in enumerate(negs):
        if all(w <= 1e-12 for w in negs[i:]):
            ell_emp = i + 1
            break
    elapsed = time.monotonic() - start
    ok = ell_emp is not None and elapsed < 60.0
    _report(
        capfd,
        1,
        f"sudden death at gap {ell_emp} (2x2 cut, PPT exact, {elapsed:.1f}s)",
        ok,
    )


def test_acceptance_2_telescoping_identity(capfd):
    start = time.monotonic()
    worst = 0.0
    for spec in _corpus():
        ia = spec.build()
        n = len(ia.sites)
        regions = RegionsABC.from_sizes(2, n - 4, 2)
        for k0 in (1, 2):
            rep = telescope_verify(ia, regions, k0)
            worst = max(worst, rep.identity_rel_err, rep.k0_term_rel_err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 300.0
    _report(
        capfd,
        2,
        f"telescoping identity, worst rel err {worst:.2e} ({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_3_constructive_decomposition(capfd):
    ok = True
    worst_recon = 0.0
    ball_hits = 0
    for i, spec in enumerate(_corpus()):
        ia = spec.build()
        n = len(ia.sites)
        na, nc = (1, 1) if i % 2 else (2, 1)
        regions = RegionsABC.from_sizes(na, n - na - nc, nc)  # |B| >= 6
        for k in range(1, max(na, nc) + 1):
            core = decompose_truncated_marginal(ia, regions, k)
            ok &= core.gamma > 0
            err = core_split_rel_err(core, *conjugated_marginals_oracle(ia, regions, k))
            ok &= err <= 1e-9
            worst_recon = max(worst_recon, err)
            if core.ball_ok:
                ball_hits += 1
                tr = core.tilde_ac.trace().real
                neg = negativity(core.tilde_ac * (1 / tr), core.cut).negativity
                ok &= neg <= 1e-10
    ok &= ball_hits > 0
    _report(
        capfd,
        3,
        f"constructive decomposition, worst recon {worst_recon:.2e}, "
        f"{ball_hits} ball certificates PPT-checked",
        ok,
    )


def test_acceptance_4_tail_factorial_bound(capfd):
    ok = True
    for spec in _corpus():
        ia = spec.build()
        n = len(ia.sites)
        regions = RegionsABC.from_sizes(2, n - 4, 2)
        kmax = 2
        g_emp = covering_bound(ia, regions, range(1, kmax + 2), 0.5)
        for k in range(1, kmax + 2):
            t = tail_term(ia, regions, k)
            if k >= kmax:
                ok &= t.norm <= 1e-12
            else:
                ok &= t.norm <= tail_norm_bound(g_emp, k, ia.interaction_range) + 1e-12
    _report(capfd, 4, "tail terms obey the factorial bound and vanish past kmax", ok)


def test_acceptance_5_inequality_suites(capfd):
    start = time.monotonic()
    fails = {"z_ratios": 0, "pinsker": 0, "contraction": 0, "floor": 0, "ordering": 0}
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(4, 8))
        r = int(rng.integers(1, 3))
        ia = builtin_models(
            "random", {"sites": n, "range": r, "strength": 2.0, "seed": 1000 + i}
        )
        na = int(rng.integers(1, n - 1))
        nc = int(rng.integers(1, n - na)) if n - na > 1 else 1
        nb = n - na - nc
        if nb < 1:
            na, nb, nc = 1, n - 2, 1
        regions = RegionsABC.from_sizes(na, nb, nc)

        if not check_partition_ratios(ia, regions.a, regions.b).all_ok:
            fails["z_ratios"] += 1

        g = gibbs(ia, regions.all_sites)
        rho_ac = marginal(g, regions.ac)
        rho_a = marginal(g, regions.a)
        rho_c = marginal(g, regions.c)
        diff = rho_ac - (embed(rho_a, regions.ac) @ embed(rho_c, regions.ac))
        mi = mutual_information(ia, regions)
        if trace_norm(diff) ** 2 > 2 * mi + 1e-9:
            fails["pinsker"] += 1
        if op_norm(diff) > trace_norm(diff) + 1e-12:
            fails["ordering"] += 1

        dim = 2 ** len(regions.ac)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if not contraction_check(rho_a, LocalOperator(regions.ac, (x + x.conj().T) / 2)).ok:
            fails["contraction"] += 1

        if not marginal_inverse_norm(ia, regions).ok:
            fails["floor"] += 1
    elapsed = time.monotonic() - start
    total = sum(fails.values())
    ok = total == 0 and elapsed < 600.0
    _report(
        capfd,
        5,
        f"inequality suites, 100 instances each, {total} failures ({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_6_identity_ball(capfd):
    fails = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        da, dc = (2, 2) if trial % 2 else (2, 3)
        dim = da * dc
        h = random_hermitian(rng, dim)
        h = h / max(float(np.abs(np.linalg.eigvalsh(h)).max()), 1e-300)
        h = h * ball_radius(da, dc) * float(rng.uniform(0, 1))
        if (da, dc) == (2, 2):
            state = identity((0, 1), 2) + LocalOperator((0, 1), h)
            state = state * (1.0 / state.trace().real)
            if exact_sep_test(state, ((0,), (1,))).verdict != VERDICT_SEPARABLE:
                fails += 1
        else:
            # 2x3 cut: PPT on the raw matrix (the qutrit factor has no
            # uniform-local-dimension operator wrapper)
            state = (np.eye(dim) + h) / np.trace(np.eye(dim) + h).real
            pt = state.reshape(da, dc, da, dc).transpose(2, 1, 0, 3).reshape(dim, dim)
            if np.linalg.eigvalsh(pt).min() < -1e-12:
                fails += 1
    _report(capfd, 6, f"identity-ball members pass exact PPT test, {fails} failures", fails == 0)


def test_acceptance_7_oracle_equivalence(capfd):
    worst = 0.0
    rng = np.random.default_rng(7)
    sites = (0, 1, 2)
    for trial in range(5):
        m = random_hermitian(rng, 8)
        op = LocalOperator(sites, m)
        # partial trace and partial transpose over every admissible subset
        for size in (1, 2):
            for subset in itertools.combinations(sites, size):
                got = partial_trace(op, subset).matrix
                want = partial_trace_oracle(m, sites, subset)
                worst = max(worst, float(np.abs(got - want).max()))
        for size in (1, 2, 3):
            for subset in itertools.combinations(sites, size):
                got = partial_transpose(op, subset).matrix
                want = partial_transpose_oracle(m, sites, subset)
                worst = max(worst, float(np.abs(got - want).max()))
        # embeddings from every sub-support (including non-contiguous)
        for size in (1, 2):
            for supp in itertools.combinations(sites, size):
                small = LocalOperator(supp, random_hermitian(rng, 2**size))
                got = embed(small, sites).matrix
                want = embed_oracle(small.matrix, supp, sites)
                worst = max(worst, float(np.abs(got - want).max()))
        # Hermitian exponential vs scaling-and-squaring Taylor series
        for size in (1, 2, 3):
            h = random_hermitian(rng, 2**size)
            hop = LocalOperator(tuple(range(size)), h)
            for scale in (-1.0, -0.5, 0.5):
                got = herm_exp(hop, scale).matrix
                want = expm_oracle(scale * h)
                worst = max(worst, float(np.abs(got - want).max()))
    _report(
        capfd,
        7,
        f"tensor primitives match brute-force oracles, worst dev {worst:.2e}",
        worst <= 1e-12,
    )
