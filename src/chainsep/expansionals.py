"""Norms of the interface operators relating coupled and decoupled Gibbs factors.

For adjacent intervals X, Y and |s| <= 1 the interface operator is
E(s) = exp(-s H_{XY}) exp(s(H_X + H_Y)); its norm stays bounded uniformly
in the interval sizes.  This module computes ||E|| and ||E^{-1}|| when an
expansional is built, from E formed of `Chain.exp`'s factors and not kept,
an empirical uniform-norm constant over them (the truncations it reads are
`RegionsABC.clip`'s) and the proof's factorial bounds built on it, the
partial-trace contraction check, and the per-instance lemma suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FloatRangeError, GeometryError
from .gibbs import (
    Chain,
    check_partition_ratios,
    factorization_error,
    mutual_information,
)
from .linalg import LocalOperator, embed, min_eig, op_norm, partial_trace
from .model import Interaction, RegionsABC


class ExpansionalReport(NamedTuple):
    """||E(s)|| and ||E(s)^{-1}||, computed when the report is built."""

    norm_e: float
    norm_e_inv: float


def _norms(chain: Chain, x: tuple[int, ...], y: tuple[int, ...], s: complex) -> ExpansionalReport:
    """(||E||, ||E^{-1}||) from the Gram of E formed, with no SVD.

    F(t) = (e^{tH_X} (x) e^{tH_Y}) e^{-tH_XY} is E^dag at t = conj(s) and
    E^{-1} at t = -s.  Each exponential is formed by `Chain.exp`, and the
    kron factor is applied by reshape, n^2 (d_X + d_Y) work.  One eigvalsh
    of F F^dag at t = conj(s) gives ||E|| = sqrt(lambda_max) and ||E^{-1}||
    = 1/sqrt(lambda_min).  lambda_min is off by about eps n lambda_max, so if
    lambda_min <= 0 or eps n lambda_max / lambda_min > 1e-10, ||E^{-1}|| =
    sqrt(lambda_max) of the Gram at t = -s instead.  A factor, F or its Gram
    beyond the float range raises FloatRangeError.
    """
    def gram_eigvals(t):  # of F(t) F(t)^dag
        f = chain.exp(x + y, -t).matrix
        n, d_x = len(f), chain.ia.local_dim ** len(x)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            f = chain.exp(x, t).matrix @ f.reshape(d_x, -1)
            f = (chain.exp(y, t).matrix @ f.reshape(d_x, -1, n)).reshape(n, n)
            gram = f @ f.conj().T
        del f  # let go of before the eigvalsh
        if not np.isfinite(gram).all():
            raise FloatRangeError(f"the interface operator of X {x}, Y {y} overflows at t={t}")
        return np.linalg.eigvalsh(gram)
    lam = gram_eigvals(np.conj(s))
    if np.finfo(float).eps * len(lam) * lam[-1] <= 1e-10 * lam[0]:
        norm_e_inv = 1.0 / math.sqrt(lam[0])
    else:  # lambda_min is too inaccurate: the same eigvalsh on E^{-1}
        norm_e_inv = math.sqrt(gram_eigvals(-s)[-1])
    return ExpansionalReport(math.sqrt(lam[-1]), norm_e_inv)


def _as_interval(part: Sequence[int], name: str) -> tuple[int, ...]:
    part = tuple(sorted(int(s) for s in part))
    if not part:
        raise GeometryError(f"{name} must be nonempty")
    if part != tuple(range(part[0], part[-1] + 1)):
        raise GeometryError(f"{name} must be a contiguous interval, got {part}")
    return part


def expansional(
    system: Interaction | Chain,
    x: Sequence[int],
    y: Sequence[int],
    s: complex,
) -> ExpansionalReport:
    """The norms of E(s) = e^{-s H_XY} e^{s(H_X + H_Y)} for adjacent intervals
    X, Y, computed once per Chain (see `_norms`)."""
    chain = Chain.of(system)
    x = _as_interval(x, "X")
    y = _as_interval(y, "Y")
    if x[-1] + 1 != y[0]:
        raise GeometryError(f"X {x} and Y {y} must be adjacent")
    if abs(s) > 1 + 1e-12:
        raise GeometryError(f"|s| must be <= 1, got {abs(s)}")

    return chain.cached(("expansional", x, y, s), lambda: _norms(chain, x, y, s))


def _uniform(reps) -> float:
    """g = max(1, ||E||, ||E^{-1}||) over the expansional reports `reps`: the
    proof's one uniform constant, measured."""
    return max([1.0] + [n for rep in reps for n in (rep.norm_e, rep.norm_e_inv)])


@dataclass(frozen=True)
class UniformBoundEstimate:
    value: float
    entries: tuple[tuple[int, int, complex, float, float], ...]
    # entries: (|X|, |Y|, s, ||E||, ||E^{-1}||) for every grid point evaluated


def estimate_uniform_bound(
    system: Interaction | Chain,
    size_grid: Sequence[tuple[int, int]],
    s_grid: Sequence[complex],
) -> UniformBoundEstimate:
    """Empirical uniform norm constant: grid max of max(||E||, ||E^{-1}||, 1).

    Every admissible placement of adjacent intervals of the requested sizes
    inside the chain is evaluated, so non-translation-invariant models are
    probed everywhere.
    """
    if not size_grid or not s_grid:
        raise GeometryError("size and s grids must be nonempty")
    chain = Chain.of(system)
    sites = chain.ia.sites
    reps, entries = [], []
    for nx, ny in size_grid:
        if nx < 1 or ny < 1:
            raise GeometryError("interval sizes must be >= 1")
        if nx + ny > len(sites):  # a pair that fits nowhere would measure nothing
            raise GeometryError(f"sizes ({nx}, {ny}) exceed the {len(sites)} sites")
        for start in range(len(sites) - nx - ny + 1):
            x = sites[start : start + nx]
            y = sites[start + nx : start + nx + ny]
            for s in s_grid:
                rep = expansional(chain, x, y, s)
                reps.append(rep)
                entries.append((nx, ny, s, rep.norm_e, rep.norm_e_inv))
    return UniformBoundEstimate(_uniform(reps), tuple(entries))


def covering_bound(
    system: Interaction | Chain,
    regions: RegionsABC,
    k_values: Sequence[int],
    s: complex,
) -> float:
    """Uniform-norm constant measured over every interface operator the
    telescope uses: A:B and AB:C, untruncated and clipped to (a_k, c_k) for
    each requested k."""
    chain = Chain.of(system)
    a, b, c = regions.a, regions.b, regions.c
    pairs = [(a, b), (a + b, c)]
    for a_k, c_k in map(regions.clip, k_values):
        if a_k:  # k = 0 clips both to nothing
            pairs += [(a_k, b), (a_k + b, c_k)]
    return _uniform(expansional(chain, x, y, s) for x, y in pairs)


def factorial_decay_bound(g_emp: float, ell: int, r: int) -> float:
    """g^ell / (floor(ell/r)+1)!, the superexponential truncation bound."""
    reff = max(r, 1)
    return g_emp**ell / math.factorial(ell // reff + 1)


def tail_norm_bound(g_emp: float, k: int, r: int) -> float:
    """4 g^3 g^k / (floor(k/r)+1)!, the proof's tail norm budget."""
    return 4.0 * g_emp**3 * factorial_decay_bound(g_emp, k, r)


@dataclass(frozen=True)
class ContractionReport:
    input_norm: float
    output_norm: float
    ok: bool


def contraction_check(rho_b: LocalOperator, x: LocalOperator) -> ContractionReport:
    """Verify that X -> tr_B[(1_A x rho_B) X] contracts the operator norm."""
    if not set(rho_b.support) <= set(x.support):
        raise GeometryError("rho_B must act on a subset of X's support")
    weighted = embed(rho_b, x.support) @ x
    out = partial_trace(weighted, rho_b.support)
    in_norm = op_norm(x)
    out_norm = op_norm(out)
    return ContractionReport(in_norm, out_norm, out_norm <= in_norm * (1 + 1e-10) + 1e-12)


@dataclass(frozen=True, eq=False)
class MarginalFloorReport:
    """||rho_B^{-1}|| = `inv_norm` against g^4 e^{2rJ + (2J + log d)|B|}, g from the
    two expansionals at s = -1/2 of its derivation.  Holds the Chain, which does
    not keep it (no cycle); g, `bound` and `ok` wait for a read.  `ok` fails if
    min eig(rho_B) <= 0, else compares logs, measuring g only if g = 1 does not
    decide; g forms e^{tH} of ABC, AB, A and B by `Chain.exp`, each solved again
    after a streamed read (no corpus case), and raises FloatRangeError where an
    interface operator overflows."""

    inv_norm: float
    chain: Chain = field(repr=False)
    regions: RegionsABC

    def _log_bound(self, log_g: float) -> float:
        # g = 1 is log_g = 0.0 in the one expression, summed left to right:
        # g >= 1 makes 4 log g >= 0 and rounded addition is monotone, so a pass
        # at g = 1 is a pass at the measured g
        ia = self.chain.ia
        d, j, r = ia.local_dim, ia.strength, ia.interaction_range
        return 4 * log_g + 2 * r * j + (2 * j + math.log(d)) * len(self.regions.b)

    @cached_property
    def g_emp(self) -> float:
        a, b, c = self.regions.a, self.regions.b, self.regions.c
        return _uniform((expansional(self.chain, a, b, -0.5),
                         expansional(self.chain, a + b, c, -0.5)))

    @cached_property
    def bound(self) -> float:
        with np.errstate(over="ignore"):  # a bound beyond the float range is reported as inf
            return float(np.exp(self._log_bound(math.log(self.g_emp))))

    @cached_property
    def ok(self) -> bool:
        m = min_eig(self.chain.marginal(self.regions.all_sites, self.regions.b))
        if not m > 0:
            return False
        lhs, slack = -math.log(m), math.log1p(1e-9)
        return (lhs <= self._log_bound(0.0) + slack
                or lhs <= self._log_bound(math.log(self.g_emp)) + slack)


def marginal_inverse_norm(
    system: Interaction | Chain, regions: RegionsABC
) -> MarginalFloorReport:
    """||rho_B^{-1}|| against its bound: reads min eig(rho_B) now, the rest on demand."""
    chain = Chain.of(system)
    m = min_eig(chain.marginal(regions.all_sites, regions.b))
    return MarginalFloorReport(1.0 / m if m > 0 else math.inf, chain, regions)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of each check of the lemma suite on one instance."""

    z_ratio_bound: bool
    z_size_bounds: bool
    z_split_bounds: bool
    pinsker: bool
    contraction: bool
    marginal_floor: bool
    norm_ordering: bool


def check_lemmas(
    system: Interaction | Chain,
    regions: RegionsABC,
    x: LocalOperator,
) -> LemmaReport:
    """Run the lemma suite on one instance, all of it on one Chain.

    The checks: the three partition-function inequality chains for A, B;
    Pinsker's inequality ||rho_AC - rho_A x rho_C||_1^2 <= 2 I(A:C); the
    operator norm of that difference below its trace norm; the contraction
    of the Hermitian test operator `x` on A u C under the partial-trace map,
    with rho_A as the state; and the marginal floor of rho_B.
    """
    chain = Chain.of(system)
    chain.marginals(regions.all_sites, (regions.ac, regions.a, regions.b))  # one read of ABC
    pr = check_partition_ratios(chain, regions.a, regions.b)
    fe = factorization_error(chain, regions)
    mi = mutual_information(chain, regions)
    return LemmaReport(
        z_ratio_bound=pr.ratio_bound_ok,
        z_size_bounds=pr.size_bounds_ok,
        z_split_bounds=pr.split_bounds_ok,
        pinsker=fe.trace_norm_err**2 <= 2 * mi + 1e-9,
        contraction=contraction_check(chain.marginal(regions.all_sites, regions.a), x).ok,
        marginal_floor=marginal_inverse_norm(chain, regions).ok,
        norm_ordering=fe.op_norm_err <= fe.trace_norm_err + 1e-12,
    )
