"""Interface operators relating coupled and decoupled Gibbs factors.

For adjacent intervals X, Y and |s| <= 1 the interface operator is
E(s) = exp(-s H_{XY}) exp(s(H_X + H_Y)); its norm stays bounded uniformly
in the interval sizes, and truncating the intervals changes it
superexponentially little.  This module computes these operators, their
k-truncations around the middle region, an empirical uniform-norm
constant and the proof's factorial bounds built on it, the partial-trace
contraction check, and the per-instance lemma suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyIntersectionError, GeometryError
from .gibbs import (
    Chain,
    check_partition_ratios,
    factorization_error,
    from_spectrum,
    mutual_information,
)
from .linalg import LocalOperator, embed, identity, min_eig, op_norm, partial_trace
from .model import Interaction, RegionsABC, k_neighborhood


@dataclass(frozen=True, eq=False)
class ExpansionalReport:
    """E(s) held as `factors`, the Chain's (e^{-tw}, V) of H_XY, (e^{tw}, V) of
    H_X and H_Y, at t = s and -s: arrays, not the Chain, so there is no cycle.
    E (`e`), E^{-1} (`e_inv`) and their norms are each computed on first read."""

    s: complex
    x: tuple[int, ...]
    y: tuple[int, ...]
    factors: tuple = field(repr=False)
    local_dim: int

    def _form(self, inverse: bool) -> LocalOperator:
        """E = e^{-sH_XY} e^{sH_0}, or E^{-1} = e^{-sH_0} e^{sH_XY}, by Chain.exp's products."""
        a, bx, by = (from_spectrum(f, v) for f, v in self.factors[inverse])
        m = np.kron(bx, by) @ a if inverse else a @ np.kron(bx, by)
        return LocalOperator(self.x + self.y, m, self.local_dim)

    e = cached_property(lambda self: self._form(False))
    e_inv = cached_property(lambda self: self._form(True))

    @cached_property
    def _norms(self) -> tuple[float, float]:
        """(||E||, ||E^{-1}||) from the spectra, with no SVD and E never formed.

        For H_XY = V diag(w) V^dag and H_X + H_Y = W diag(w_0) W^dag,
        W = V_X (x) V_Y, A = diag(e^{-sw}) V^dag W diag(e^{s w_0}) has the
        singular values of E at any complex s, so one eigvalsh of A A^dag gives
        ||E|| = sqrt(lambda_max) and ||E^{-1}|| = 1/sqrt(lambda_min).
        lambda_min is off by about eps n lambda_max, so if lambda_min <= 0 or
        eps n lambda_max / lambda_min > 1e-10, ||E^{-1}|| = sqrt(lambda_max(B B^dag))
        instead, for E^{-1} in the same bases, B = diag(e^{-s w_0}) W^dag V diag(e^{sw}).
        """
        ((f, v), (fx, vx), (fy, vy)), ((f_inv, _), (fx_inv, _), (fy_inv, _)) = self.factors
        u = v.conj().T @ np.kron(vx, vy)

        def gram_eigvals(left, m, right):  # of G G^dag, G = diag(left) m diag(right)
            g = left[:, None] * m * right
            return np.linalg.eigvalsh(g @ g.conj().T)
        lam = gram_eigvals(f, u, np.kron(fx, fy))
        if np.finfo(float).eps * len(f) * lam[-1] <= 1e-10 * lam[0]:
            norm_e_inv = 1.0 / math.sqrt(lam[0])
        else:  # lambda_min is too inaccurate: the same eigvalsh on E^{-1}
            b_inv = np.kron(fx_inv, fy_inv)
            norm_e_inv = math.sqrt(gram_eigvals(b_inv, u.conj().T, f_inv)[-1])
        return math.sqrt(lam[-1]), norm_e_inv

    norm_e = property(lambda self: self._norms[0])
    norm_e_inv = property(lambda self: self._norms[1])


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
    """E(s) = e^{-s H_XY} e^{s(H_X + H_Y)} for adjacent intervals X, Y, built
    once per Chain from its six spectral factors; E and its norms wait for a read."""
    chain = Chain.of(system)
    x = _as_interval(x, "X")
    y = _as_interval(y, "Y")
    if x[-1] + 1 != y[0]:
        raise GeometryError(f"X {x} and Y {y} must be adjacent")
    if abs(s) > 1 + 1e-12:
        raise GeometryError(f"|s| must be <= 1, got {abs(s)}")

    def build():
        factors = tuple(tuple(chain.exp_spectrum(r, c) for r, c in ((x + y, -t), (x, t), (y, t)))
                        for t in (s, -s))
        return ExpansionalReport(s, x, y, factors, chain.ia.local_dim)

    return chain.cached(("expansional", x, y, s), build)


_PAIRS = {"A:B": ("A", "B"), "AB:C": ("AB", "C")}


def _clip_pair(
    regions: RegionsABC, pair: str, k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both intervals of `pair` clipped to the k-neighbourhood of B."""
    if pair not in _PAIRS:
        raise GeometryError(f"pair must be one of {sorted(_PAIRS)}, got {pair!r}")
    hood = set(k_neighborhood(regions, k))
    return tuple(
        tuple(t for t in regions.part(name) if t in hood) for name in _PAIRS[pair]
    )


def truncated_expansional(
    system: Interaction | Chain,
    regions: RegionsABC,
    pair: str,
    k: int,
    s: complex,
) -> ExpansionalReport:
    """Expansional with both intervals clipped to the k-neighbourhood of B."""
    left, right = _clip_pair(regions, pair, k)
    if not left or not right:
        raise EmptyIntersectionError(
            f"pair {pair} at k={k} clips one interval to nothing"
        )
    return expansional(system, left, right, s)


def _truncated_or_identity(
    chain: Chain, regions: RegionsABC, pair: str, k: int, s: complex
) -> LocalOperator:
    """Like truncated_expansional, but an empty clip yields the identity.

    With one interval clipped away there are no cross terms left, so the
    interface operator degenerates to the identity on the surviving part.
    """
    left, right = _clip_pair(regions, pair, k)
    if not left or not right:
        return identity(left + right, chain.ia.local_dim)
    return expansional(chain, left, right, s).e


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
    best = 1.0
    entries = []
    for nx, ny in size_grid:
        if nx < 1 or ny < 1:
            raise GeometryError("interval sizes must be >= 1")
        for start in range(len(sites) - nx - ny + 1):
            x = sites[start : start + nx]
            y = sites[start + nx : start + nx + ny]
            for s in s_grid:
                rep = expansional(chain, x, y, s)
                best = max(best, rep.norm_e, rep.norm_e_inv)
                entries.append((nx, ny, s, rep.norm_e, rep.norm_e_inv))
    return UniformBoundEstimate(best, tuple(entries))


def covering_bound(
    system: Interaction | Chain,
    regions: RegionsABC,
    k_values: Sequence[int],
    s: complex,
) -> float:
    """Uniform-norm constant measured over every truncated expansional used
    downstream: both pairs, all requested k, plus the untruncated ones."""
    chain = Chain.of(system)
    best = 1.0
    for pair in _PAIRS:
        for k in k_values:
            try:
                rep = truncated_expansional(chain, regions, pair, k, s)
            except EmptyIntersectionError:
                continue
            best = max(best, rep.norm_e, rep.norm_e_inv)
        left, right = _PAIRS[pair]
        rep = expansional(chain, regions.part(left), regions.part(right), s)
        best = max(best, rep.norm_e, rep.norm_e_inv)
    return best


def factorial_decay_bound(g_emp: float, ell: int, r: int) -> float:
    """g^ell / (floor(ell/r)+1)!, the superexponential truncation bound."""
    reff = max(r, 1)
    return g_emp**ell / math.factorial(ell // reff + 1)


def tail_norm_bound(g_emp: float, k: int, r: int) -> float:
    """4 g^3 g^k / (floor(k/r)+1)!, the proof's tail norm budget."""
    return 4.0 * g_emp**3 * factorial_decay_bound(g_emp, k, r)


@dataclass(frozen=True)
class DifferenceDecayReport:
    ell: int
    difference_norm: float
    inverse_difference_norm: float
    bound: float
    g_emp: float
    ok: bool


def difference_decay(
    system: Interaction | Chain,
    x: Sequence[int],
    y: Sequence[int],
    extensions: tuple[Sequence[int], Sequence[int]],
    s: complex,
) -> DifferenceDecayReport:
    """Compare ||E_{X,Y} - E_{X~X,YY~}|| against the factorial bound, with the
    uniform constant measured on the two expansionals compared."""
    x = _as_interval(x, "X")
    y = _as_interval(y, "Y")
    ext_left = tuple(sorted(int(t) for t in extensions[0]))
    ext_right = tuple(sorted(int(t) for t in extensions[1]))
    if ext_left and ext_left[-1] + 1 != x[0]:
        raise GeometryError("left extension must immediately precede X")
    if ext_right and y[-1] + 1 != ext_right[0]:
        raise GeometryError("right extension must immediately succeed Y")

    chain = Chain.of(system)
    base = expansional(chain, x, y, s)
    big = expansional(chain, ext_left + x, y + ext_right, s)
    target = big.e.support
    diff = op_norm(big.e - embed(base.e, target))
    diff_inv = op_norm(big.e_inv - embed(base.e_inv, target))
    g_emp = max(1.0, base.norm_e, base.norm_e_inv, big.norm_e, big.norm_e_inv)
    ell = min(len(x), len(y))
    bound = factorial_decay_bound(g_emp, ell, chain.ia.interaction_range)
    ok = diff <= bound + 1e-12 and diff_inv <= bound + 1e-12
    return DifferenceDecayReport(ell, diff, diff_inv, bound, g_emp, ok)


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


@dataclass(frozen=True)
class MarginalFloorReport:
    inv_norm: float
    bound: float
    g_emp: float
    ok: bool


def marginal_inverse_norm(
    system: Interaction | Chain, regions: RegionsABC
) -> MarginalFloorReport:
    """Check ||rho_B^{-1}|| against the expansional-derived exponential bound.

    The uniform constant is measured on this instance from the two
    expansionals at s = -1/2 that appear in the derivation of the bound.
    Both sides are compared as logs, so neither may overflow and pass; if
    min eig(rho_B) <= 0, the check fails and reports inv_norm = inf.
    """
    chain = Chain.of(system)
    m = min_eig(chain.marginal(regions.all_sites, regions.b))

    rep_ab = expansional(chain, regions.a, regions.b, -0.5)
    rep_abc = expansional(chain, regions.a + regions.b, regions.c, -0.5)
    g_emp = max(
        1.0, rep_ab.norm_e, rep_ab.norm_e_inv, rep_abc.norm_e, rep_abc.norm_e_inv
    )
    ia = chain.ia
    d, j, r = ia.local_dim, ia.strength, ia.interaction_range
    log_bound = 4 * math.log(g_emp) + 2 * r * j + (2 * j + math.log(d)) * len(regions.b)
    ok = m > 0 and -math.log(m) <= log_bound + math.log1p(1e-9)
    with np.errstate(over="ignore"):  # a bound beyond the float range is reported as inf
        bound = float(np.exp(log_bound))
    return MarginalFloorReport(1.0 / m if m > 0 else math.inf, bound, g_emp, ok)


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
