"""Gibbs states, partition functions, marginals and information measures."""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, FloatRangeError, GeometryError
from .linalg import LocalOperator, kron, op_norm, partial_trace, trace_norm
from .model import ASSEMBLY_BAND, Entries, Interaction, RegionsABC, hamiltonian_entries

DEFAULT_BUDGET = 4096
LOG_FLOOR = 1e-300
# relative slack of the partition-function inequality chains, in the log domain
PARTITION_RATIO_SLACK = 1e-9
# how far from 1 the trace of a marginal of a Gibbs state may be
NORMALIZATION_TOL = 1e-12


def _region(region: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(s) for s in region)))


# ---------------------------------------------------------------------------
# Block spectra from exact structure
# ---------------------------------------------------------------------------

def _mates(h: Entries, keys: np.ndarray) -> np.ndarray:
    """h's value at each of the ascending `keys`, 0 where a key is no entry."""
    if np.array_equal(keys, h.keys):
        return h.values
    at = np.searchsorted(h.keys, keys)
    return np.where(np.append(h.keys, -1)[at] == keys, np.append(h.values, 0)[at], 0)


def _components(h: Entries) -> np.ndarray:
    """The connected components of h's pattern, where i and j are linked by an
    entry at (i, j) or (j, i), as the least index of each index's component."""
    i, j = np.divmod(h.keys, h.side)
    root = np.arange(h.side)
    while True:  # each index takes its neighbours' least root, then its root's
        low = root.copy()
        np.minimum.at(low, i, root[j])
        np.minimum.at(low, j, root[i])
        low = low[low]
        if np.array_equal(low, root):
            return root
        root = low


def _pieces(h: Entries) -> list[tuple]:
    """The blocks of a Hermitian h: (c, flip, paired) for each connected
    component c of its pattern, c ascending, so c[0] is its least index.

    The global flip i -> N-1-i maps c onto c' = N-1-c.  If c' == c and
    b = h[c, c] == b[::-1, ::-1], `flip` is True: the flip is a symmetry of
    b (see `_sectors`).  If c' is another component, of side > 1, and
    h[c', c'] == h[c, c][::-1, ::-1], `paired` is True and c' is left out:
    its eigenvectors are c's, put at the rows N-1-c, with the same
    eigenvalues.
    """
    n, root = h.side, _components(h)
    order = np.argsort(root, kind="stable")  # ascending within a component, least index first
    comps = np.split(order, np.unique(root[order], return_index=True)[1][1:])
    # the components with an entry that the flip does not map onto an equal one
    flipped = n * n - 1 - h.keys[::-1]  # ascending
    unmapped = np.zeros(n, bool)
    unmapped[root[n - 1 - flipped[_mates(h, flipped) != h.values[::-1]] // n]] = True
    first = {int(c[0]): c for c in comps}
    blocks, images = [], set()
    for c in comps:
        if int(c[0]) in images:
            continue
        image = n - 1 - c[::-1]
        closed = np.array_equal(c, image)
        other = not closed and len(c) > 1 and np.array_equal(first.get(int(image[0])), image)
        maps = not unmapped[c[0]] | unmapped[image[0]]
        if maps and other:
            images.add(int(image[0]))
        blocks.append((c, maps and closed, maps and other))
    return blocks


def _sectors(c: np.ndarray, n: int, flip: bool, reverse: np.ndarray | None):
    """The sub-blocks of the block c of an n x n H under its symmetry group
    G: (rows, chi, size) for each character chi of G that keeps an orbit.

    G holds 1, the flip F (i -> n-1-i) if `flip`, and the site reflection R
    (i -> reverse[i]) if it is given and maps c onto itself; with both, also
    FR.  Each orbit O of G on c stands for its least index o.  chi keeps O
    if it is 1 on every g with g o = o, and then sum_{i in O} chi(g_i) e_i
    / sqrt|O|, where g_i o = i, is a unit vector of chi's sub-block.  For
    the kept orbits a, rows[g, a] = g o_a, with g in the order of chi's
    entries (rows[0] are the o_a), and size[a] = |O_a|.
    """
    images, chars = [c], np.ones((1, 1))
    gens = [np.arange(n)[::-1]] if flip else []
    if reverse is not None and np.array_equal(np.sort(reverse[c]), c):
        gens.append(reverse)
    for gen in gens:  # each g is followed by g gen, and each chi splits by its value at gen
        images = [x for g in images for x in (g, gen[g])]
        chars = np.kron(chars, [[1, 1], [1, -1]])
    images = np.stack(images)
    reps = images.min(0) == c
    images = images[:, reps]
    fixes = images == c[reps]
    size = len(chars) / fixes.sum(0)  # |O| = |G| / |the g that fix o|
    for chi in chars:
        kept = ~(fixes & (chi < 0)[:, None]).any(0)
        if kept.any():
            yield images[:, kept], chi, size[kept]


def _gather(h: Entries, rows: np.ndarray, chi: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The sub-block of a `_sectors` entry, read from h's entries in the rows
    of the representatives: sub[a, b] = sqrt(|O_a| |O_b|) / |G| sum_g chi(g)
    H[o_a, g o_b], each leg g added in the order of chi."""
    m = rows.shape[1]
    start = np.searchsorted(h.keys, rows[0] * h.side)
    count = np.searchsorted(h.keys, (rows[0] + 1) * h.side) - start
    line = np.repeat(np.arange(m), count)  # each entry's output row, and its index
    at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    col, v = h.keys[at] % h.side, h.values[at]
    out, to = np.zeros((m, m), h.values.dtype), np.empty(h.side, np.intp)
    for image, sign in zip(rows, chi):  # a leg's columns are distinct: no += drops a repeat
        to.fill(-1)
        to[image] = np.arange(m)
        dest = to[col]
        keep = dest >= 0
        a, b = line[keep], dest[keep]
        out[a, b] += sign * np.sqrt(size[a] * size[b]) / len(chi) * v[keep]
    return out


class Piece(NamedTuple):
    """One solved m x m matrix of a Hermitian H, eigenvalues w (m,) and
    eigenvectors u (m, m), and where it sits in H: column j of u is the
    eigenvector of H that is coef[t] u[orbit[t], j] at the row rows[t], for
    the rows it touches, ascending, and 0 off them."""

    w: np.ndarray
    u: np.ndarray
    rows: np.ndarray
    orbit: np.ndarray
    coef: np.ndarray


def _piece(w: np.ndarray, u: np.ndarray, rows: np.ndarray, chi: np.ndarray, size: np.ndarray):
    """A solved sub-block of `_sectors`: each row g o_a that a leg reaches
    reads row a of u, with coef chi(g) / sqrt|O_a| (legs that meet at a row
    agree there)."""
    at, first = np.unique(rows, return_index=True)
    g, a = np.divmod(first, rows.shape[1])
    return Piece(w, u, at, a, chi[g] * np.sqrt(1 / size[a]))


def _columns(pc: Piece, at: np.ndarray):
    """The piece's columns with V's row at[x, y] read as row y of layer x:
    (w, ys, S) for each group of c of its columns, w (c,), ys the y its rows
    reach, ascending, and S[x, t] the columns' row at[x, ys[t]], of at most
    ASSEMBLY_BAND numbers or one column, let go of before the next."""
    (d, side), to = at.shape, np.argsort(at, axis=None)  # V's row R is at.flat[to[R]]
    x, y = np.divmod(to[pc.rows], side)
    ys, j = np.unique(y, return_inverse=True)
    orbit, coef = np.zeros((d, len(ys)), np.intp), np.zeros((d, len(ys)))
    orbit[x, j], coef[x, j] = pc.orbit, pc.coef
    c = min(len(pc.w), max(1, ASSEMBLY_BAND // orbit.size))
    for col in range(0, len(pc.w), c):
        s = pc.u[orbit, col:col + c]
        s *= coef[:, :, None]
        yield pc.w[col:col + c], ys, s
        del s


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H = V diag(w) V^dag, held as the solved pieces of V and never as V.

    It holds just the parts that `Chain._solve` yields.  A matrix with no exact
    structure is one piece whose u is np.linalg.eigh's own V, read in place;
    any other is one piece per sub-block, and its 1 x 1 blocks are
    `diagonal`: (rows, values), the eigenvector of each value the unit
    vector at its row.  Only `form`, which `Chain.exp` calls, and `_columns`
    read the pieces, which `Chain._parts` hands to the marginals and log Z in
    `_solve`'s order, and no code forms V.
    """

    pieces: tuple[Piece, ...]
    diagonal: tuple[np.ndarray, np.ndarray]

    def form(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """V diag(f(w)) V^dag for an elementwise f: each solved matrix's own
        product u f(w) u^dag, added on the rows it touches."""
        rows, values = self.diagonal
        n = len(rows) + sum(len(pc.w) for pc in self.pieces)
        out = np.zeros((n, n), np.result_type(f(values[:0]), *(pc.u for pc in self.pieces)))
        for pc in self.pieces:
            prod = (pc.u * f(pc.w)) @ pc.u.conj().T  # lets the last piece's prod go first
            if 2 * len(pc.rows) > n:  # padded to all rows, lifted into out a band at a time
                orbit, coef = np.zeros(n, np.intp), np.zeros(n)
                orbit[pc.rows], coef[pc.rows] = pc.orbit, pc.coef
                for lo in range(0, n, step := max(1, ASSEMBLY_BAND // n)):
                    band = prod.take(orbit[lo:lo + step], 0).take(orbit, 1)
                    band *= coef[lo:lo + step, None]
                    band *= coef
                    out[lo:lo + step] += band
                continue
            prod = prod.take(pc.orbit, 0).take(pc.orbit, 1)
            prod *= pc.coef[:, None]
            prod *= pc.coef
            out[pc.rows[:, None], pc.rows] += prod
        out[rows, rows] += f(values)
        return out


def _subregion(x: Sequence[int], region: tuple[int, ...]) -> tuple[int, ...]:
    if not (x := _region(x)) or not set(x) < set(region):
        raise GeometryError(f"{x} is not a nonempty proper subregion of {region}")
    return x


def _accumulate(parts: Iterable, region: tuple[int, ...], xs: list, d: int) -> tuple:
    """(every eigenvalue, ascending, and rho_X for each proper subregion X in
    `xs`) of the Gibbs state on `region`, from `Chain._parts`, each read
    once.  With S = V diag(sqrt p), rows ordered (X legs, rest of R),
    rho_X = S S^dag: the diagonal's p summed by their X digits, then the Gram
    of each column group of `_columns`.  The sums are normalized by the least
    eigenvalue m and z = sum e^{m - w} of the parts read so far, and scaled by
    e^{m' - m} z / z' <= 1 when a part changes them, as in a log-sum-exp."""
    n = len(region)
    index, grids = np.arange(d ** n).reshape((d,) * n), []
    for x in xs:  # V's rows as (X digits, rest)
        legs = sorted(range(n), key=lambda i: region[i] not in x)  # X's legs first
        grids.append(index.transpose(legs).reshape(d ** len(x), -1))
    rhos, ws, m, z = [None] * len(xs), [], np.inf, 0.0

    def count(w):  # m and z with w counted in, the earlier sums scaled to them
        nonlocal m, z
        low = min(m, w.min())
        grown = np.exp(low - w).sum() + z * np.exp(low - m)  # exactly the first sum at z = 0
        for rho in filter(lambda rho: rho is not None, rhos):
            rho *= np.exp(low - m) * z / grown
        m, z = low, grown

    rows, values = next(parts := iter(parts))
    if len(rows):  # each unit vector's p, on the diagonal at its row's X digits
        count(values)
        for i, grid in enumerate(grids):
            at = np.argsort(grid, axis=None)[rows] // grid.shape[1]
            rhos[i] = np.diag(np.bincount(at, np.exp(m - values) / z, len(grid)))
    for pc in parts:
        ws.append(pc.w)
        count(pc.w)
        for i, grid in enumerate(grids):
            for w, _, s in _columns(pc, grid):
                s *= np.sqrt(np.exp(m - w) / z)
                s = s.reshape(len(s), -1)
                rhos[i] = s @ s.conj().T if rhos[i] is None else rhos[i] + s @ s.conj().T
                del s
        del pc
    return np.sort(np.concatenate([*ws, values]), kind="stable"), rhos


class Chain:
    """Spectral context of one interaction under one dense-size budget.

    Each region Hamiltonian is assembled and solved by `_solve`, never kept:
    a sum of the Interaction's exactly Hermitian terms, it is exactly
    Hermitian.  A read of V (e^{tH_R} by `exp`, the one former of it) holds
    the Spectrum; a read of marginals or of log Z reads the held
    pieces, or else streams them, from one source (`_parts`).  No code forms a
    whole Gibbs state: a Chain reads its proper marginals only, and `gibbs()`
    returns a view of them.  Everything computed is kept until the context is
    dropped, so a context should live for one unit of work.  Every public
    function that takes an Interaction also takes a Chain; given an
    Interaction, it reads the live Chain that `Chain.of` built on it, or
    builds one at DEFAULT_BUDGET.  `Chain(ia, budget)` is the only place a
    budget is set, and `of` never hands such a Chain out.
    """

    def __init__(self, ia: Interaction, budget: int = DEFAULT_BUDGET):
        self.ia = ia
        self.budget = budget
        self._memo: dict = {}

    @staticmethod
    def of(system: Interaction | Chain) -> Chain:
        """`system` itself if it is a Chain, else the Chain that `of` built on
        it while some caller still holds that Chain, else a new one."""
        return system if isinstance(system, Chain) else _LIVE.setdefault(system, Chain(system))

    def cached(self, key, build: Callable[[], Any]):
        """The value stored under `key`, computed by `build()` on first use;
        of two racing builds, the first stored is kept."""
        if key not in self._memo:
            self._memo.setdefault(key, build())
        return self._memo[key]

    def _solve(self, region: tuple[int, ...]) -> Iterator:
        """The solved parts of H_R, each solved when the one before it is drawn:
        the 1 x 1 blocks of its exact structure (see `_pieces`) as a diagonal
        (rows, values), then each block's sub-blocks under its symmetry group
        (see `_sectors`), gathered from H_R's entries and solved as Pieces, in
        a paired block each followed by its image, the same (w, u) at the rows
        N-1-rows.  Only a matrix with no structure is formed whole, for one
        eigh.  The general path gives it the same bits, as one sector of all
        rows, but gathers it entry by entry, which made the lemma corpus
        (random models only) about 13 % slower at --jobs 2.
        """
        n = self.ia.local_dim ** len(region)
        if n > self.budget:
            raise BudgetError(n, self.budget)
        h = hamiltonian_entries(self.ia, region)
        blocks = _pieces(h)
        reverse = (np.arange(n).reshape((self.ia.local_dim,) * len(region)).T.ravel()
                   if len(region) > 1 and self.ia.is_mirror_symmetric(region) else None)
        if reverse is None and len(blocks[0][0]) == n and not blocks[0][1]:
            (w, v), r = np.linalg.eigh(h.dense()), np.arange(n)
            yield from ((r[:0], w[:0]), Piece(w, v, r, r, np.ones(n)))
            return
        r = np.array([c[0] for c, _, _ in blocks if len(c) == 1], np.intp)
        yield r, _mates(h, r * (n + 1)).real  # the diagonal entries, ascending keys
        for c, flip, paired in (b for b in blocks if len(b[0]) > 1):
            for rows, chi, size in _sectors(c, n, flip, reverse):
                pc = _piece(*np.linalg.eigh(_gather(h, rows, chi, size)), rows, chi, size)
                yield pc
                if paired:
                    yield pc._replace(rows=n - 1 - pc.rows[::-1], orbit=pc.orbit[::-1],
                                      coef=pc.coef[::-1])
                del pc  # let go of before the next solve

    def spectrum(self, region: Sequence[int]) -> Spectrum:
        """The Spectrum of H_R: every part that `_solve` yields, held."""
        region = _region(region)

        def build():
            diagonal, *pieces = self._solve(region)
            return Spectrum(tuple(pieces), diagonal)

        return self.cached(("eigh", region), build)

    def exp(self, region: Sequence[int], t: complex) -> LocalOperator:
        """e^{t H_R}, complex t too; FloatRangeError if e^{tw} overflows on H_R's spectrum."""
        region = _region(region)
        spectrum = self.spectrum(region)
        with np.errstate(over="ignore"):
            finite = all(np.isfinite(np.exp(t * w)).all()
                         for w in (spectrum.diagonal[1], *(pc.w for pc in spectrum.pieces)))
        if not finite:
            raise FloatRangeError(f"e^(tH) overflows on the spectrum of {region} at t={t}")
        return LocalOperator(region, spectrum.form(lambda w: np.exp(t * w)), self.ia.local_dim)

    def _parts(self, region: tuple[int, ...]) -> Iterable:
        """The parts of H_R as `_solve` yields them: the held Spectrum's, or
        else `_solve`'s own, each solved when the one before it is drawn."""
        held = self._memo.get(("eigh", region))
        return self._solve(region) if held is None else [held.diagonal, *held.pieces]

    def log_partition_function(self, region: Sequence[int]) -> float:
        """log Tr e^{-H_R} = -w_min + log sum e^{-(w - w_min)}, finite at any coupling,
        from the recorded eigenvalues, else a read of `_parts` for the
        eigenvalues only, which records them.  A streamed read holds no piece:
        V of such a region is solved again only if a later read needs it,
        `marginal_floor_ok`'s `exp` of AB, A and B, which no corpus instance
        reaches."""
        region = _region(region)
        w = self.cached(("w", region),
                        lambda: _accumulate(self._parts(region), region, [], self.ia.local_dim)[0])
        return float(-w[0] + np.log(np.exp(w[0] - w).sum()))  # each term in (0, 1]

    def marginals(self, region: Sequence[int], xs: Sequence[Sequence[int]]) -> list[LocalOperator]:
        """rho_X of the Gibbs state on `region` for each nonempty proper subregion
        X in `xs`, each formed once per Chain: all new X in one read of `_parts`,
        held or streamed, each part added to every rho_X (and, streamed, let go
        before the next solve); only the rho_X and the eigenvalues are kept, so
        either way gives the same bits."""
        region, d = _region(region), self.ia.local_dim
        xs = [_subregion(x, region) for x in xs]
        new = [x for x in dict.fromkeys(xs) if ("marginal", region, x) not in self._memo]
        if new:
            w, rhos = _accumulate(self._parts(region), region, new, d)
            self._memo.setdefault(("w", region), w)
            for x, rho in zip(new, rhos):
                if abs(np.trace(rho).real - 1.0) > NORMALIZATION_TOL:
                    raise RuntimeError("a Gibbs marginal failed its normalization check")
                self._memo.setdefault(("marginal", region, x), LocalOperator(x, rho, d))
        return [self._memo[("marginal", region, x)] for x in xs]

    def marginal(self, region: Sequence[int], x: Sequence[int]) -> LocalOperator:
        """rho_X of the Gibbs state on `region`, formed once per Chain (see `marginals`)."""
        return self.marginals(region, [x])[0]


# The Chains that `Chain.of` built, by Interaction (an identity key), while held.
_LIVE: weakref.WeakValueDictionary[Interaction, Chain] = weakref.WeakValueDictionary()


class GibbsEnsemble(NamedTuple):
    """The thermal state exp(-H_R)/Z on a region, read through its proper
    marginals, which are the Chain's own (see `Chain.marginals`).  A view that
    the Chain does not store, so it makes no cycle."""

    chain: Chain
    region: tuple[int, ...]


def gibbs(system: Interaction | Chain, region: Sequence[int]) -> GibbsEnsemble:
    """The Gibbs state on `region`, with the Spectrum of H_R solved and held."""
    chain, region = Chain.of(system), _region(region)
    chain.spectrum(region)
    return GibbsEnsemble(chain, region)


def marginal(g: GibbsEnsemble, x: Sequence[int]) -> LocalOperator:
    """rho_X = tr_{R\\X} rho of g's Chain, for a nonempty proper subregion X."""
    return g.chain.marginal(g.region, x)


# ---------------------------------------------------------------------------
# Entropic quantities
# ---------------------------------------------------------------------------

def entropy(rho: LocalOperator) -> float:
    """von Neumann entropy in nats, with a defensive eigenvalue floor."""
    w = np.clip(rho.eigenvalues, LOG_FLOOR, None)
    return float(-(w * np.log(w)).sum())


def mutual_information_of(rho_ac: LocalOperator, cut_a: Sequence[int]) -> float:
    """I(A:C) = S(A) + S(C) - S(AC), which is D(rho_AC || rho_A x rho_C), for a
    state across a cut."""
    cut_a = tuple(sorted(int(s) for s in cut_a))
    cut_c = tuple(s for s in rho_ac.support if s not in set(cut_a))
    if not cut_a or not cut_c or not set(cut_a) <= set(rho_ac.support):
        raise GeometryError("cut must split the support into two nonempty parts")
    s_a = entropy(partial_trace(rho_ac, cut_c))
    s_c = entropy(partial_trace(rho_ac, cut_a))
    return max(s_a + s_c - entropy(rho_ac), 0.0)


def mutual_information(system: Interaction | Chain, regions: RegionsABC) -> float:
    rho_ac = Chain.of(system).marginal(regions.all_sites, regions.ac)
    return mutual_information_of(rho_ac, regions.a)


# ---------------------------------------------------------------------------
# Inequality checks consumed by the verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionRatioReport:
    ratio_bound_ok: bool          # Tr e^{-H'} / Tr e^{-H} <= e^{||H-H'||}
    size_bounds_ok: bool          # e^{(log d - J)|A|} <= Z_A <= e^{(log d + J)|A|}
    split_bounds_ok: bool         # e^{-rJ} <= Z_A Z_B / Z_AB <= e^{rJ}

    @property
    def all_ok(self) -> bool:
        return self.ratio_bound_ok and self.size_bounds_ok and self.split_bounds_ok


def _crossing_norm(ia: Interaction, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """||H_AB - H_A - H_B|| for A left of B: the norm of the sum of the terms in
    AB that cross the cut.  Each lies in the window W of the 2r sites around
    the cut, so the sum is assembled on W alone; embedding keeps the norm."""
    r = ia.interaction_range
    if not r:
        return 0.0
    window = tuple(s for s in a + b if b[0] - r <= s < b[0] + r)
    pos = {s: i for i, s in enumerate(window)}
    crossing = [([pos[s] for s in t], m) for t, m in ia.terms.items()
                if set(t) <= pos.keys() and t[0] < b[0] <= t[-1]]
    h = Entries.summed(crossing, ia.local_dim, len(window))
    return op_norm(LocalOperator(window, h.dense(), ia.local_dim))


def check_partition_ratios(
    system: Interaction | Chain,
    a: Sequence[int],
    b: Sequence[int],
) -> PartitionRatioReport:
    """Verify the three partition-function inequality chains for adjacent A, B.

    Every inequality is compared in the log domain, on log Z, so neither Z
    nor a bound can overflow to inf or underflow to 0 and pass vacuously.
    """
    a = tuple(sorted(int(s) for s in a))
    b = tuple(sorted(int(s) for s in b))
    if not a or not b or a[-1] + 1 != b[0]:
        raise GeometryError("A and B must be adjacent nonempty intervals")
    ab = a + b
    chain = Chain.of(system)
    ia = chain.ia
    log_z = {r: chain.log_partition_function(r) for r in (ab, a, b)}
    lo, hi = np.log1p(-PARTITION_RATIO_SLACK), np.log1p(PARTITION_RATIO_SLACK)

    gap = _crossing_norm(ia, a, b)
    log_ratio = log_z[ab] - log_z[a] - log_z[b]
    ratio_ok = abs(log_ratio) <= gap + hi

    log_d, j = np.log(ia.local_dim), ia.strength
    size_ok = all(
        (log_d - j) * len(r) + lo <= log_z[r] <= (log_d + j) * len(r) + hi
        for r in (a, b, ab)
    )

    rj = ia.interaction_range * j
    split_ok = -rj + lo <= -log_ratio <= rj + hi
    return PartitionRatioReport(bool(ratio_ok), bool(size_ok), bool(split_ok))


@dataclass(frozen=True)
class FactorizationError:
    op_norm_err: float
    trace_norm_err: float


def factorization_error(
    system: Interaction | Chain, regions: RegionsABC
) -> FactorizationError:
    """Norms of rho_AC - rho_A x rho_C on the full Gibbs state of ABC."""
    rho_ac = Chain.of(system).marginal(regions.all_sites, regions.ac)
    rho_a = partial_trace(rho_ac, regions.c)
    rho_c = partial_trace(rho_ac, regions.a)
    diff = rho_ac - kron(rho_a, rho_c)
    return FactorizationError(op_norm(diff), trace_norm(diff))
