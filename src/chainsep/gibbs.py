"""Gibbs states, partition functions, marginals and information measures."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, GeometryError
from .linalg import (
    HERMITICITY_RTOL,
    LocalOperator,
    embed,
    kron,
    op_norm,
    partial_trace,
    trace_norm,
)
from .model import Entries, Interaction, RegionsABC, hamiltonian, hamiltonian_entries

DEFAULT_BUDGET = 4096
LOG_FLOOR = 1e-300
# relative slack of the partition-function inequality chains, in the log domain
PARTITION_RATIO_SLACK = 1e-9
# how far from 1 the trace of a Gibbs state or of a marginal may be
NORMALIZATION_TOL = 1e-12


def _region(region: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(s) for s in region)))


def _boltzmann(w: np.ndarray) -> np.ndarray:
    """e^{-(w - w_min)} for an ascending spectrum: in (0, 1], so it cannot overflow."""
    return np.exp(w[0] - w)


def _state(support: tuple[int, ...], m: np.ndarray, local_dim: int) -> LocalOperator:
    """`m` as a state on `support`, after checking that its trace is 1."""
    if abs(np.trace(m).real - 1.0) > NORMALIZATION_TOL:
        raise RuntimeError("Gibbs state failed its normalization check")
    return LocalOperator(support, m, local_dim)


# ---------------------------------------------------------------------------
# Block spectra from exact structure
# ---------------------------------------------------------------------------

def _mates(h: Entries, keys: np.ndarray) -> np.ndarray:
    """h's value at each of the ascending `keys`, 0 where a key is no entry."""
    if np.array_equal(keys, h.keys):
        return h.values
    at = np.searchsorted(h.keys, keys)
    return np.where(np.append(h.keys, -1)[at] == keys, np.append(h.values, 0)[at], 0)


def _is_hermitian(h: Entries) -> bool:
    """max |M - M^dag| <= HERMITICITY_RTOL * max(1, ||M||_F), read from the entries."""
    col, row = np.divmod(h.keys, h.side)[::-1]
    order = np.argsort(col, kind="stable")  # by column, so the transposed keys ascend
    mate = _mates(h, (col * h.side + row)[order])
    tol = HERMITICITY_RTOL * max(1.0, float(np.linalg.norm(h.values)))
    return bool(np.abs(h.values[order] - mate.conj()).max(initial=0.0) <= tol)


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


def _pieces(h: Entries) -> list[tuple] | None:
    """Split a Hermitian h into independent pieces by two exact symmetries.

    Each connected component c of h's pattern is a block h[c, c], and blocks
    of equal size are stacked.  The global flip i -> N-1-i maps c onto
    c' = N-1-c.  If c' == c and b = h[c, c] == b[::-1, ::-1], b folds into the
    Hermitian halves b00 + s b01 J, s = +1 then -1 (J reverses the columns):
    if (b00 + s b01 J) u = w u, then [u; s J u] / sqrt 2 is an eigenvector of
    b.  If c' is another component, of side > 1, and h[c', c'] ==
    h[c, c][::-1, ::-1], c is solved alone: its eigenvectors at the rows N-1-c
    are those of h[c', c'].  A piece is (rows, whether it is a fold, whether c'
    is paired), its matrices left to `_gather`; see `Piece`.  None if h is one
    block with no fold.
    """
    n, root = h.side, _components(h)
    order = np.argsort(root, kind="stable")  # ascending within a component, least index first
    comps = np.split(order, np.unique(root[order], return_index=True)[1][1:])
    # the components with an entry that the flip does not map onto an equal one
    flipped = n * n - 1 - h.keys[::-1]  # ascending
    unmapped = np.zeros(n, bool)
    unmapped[root[n - 1 - flipped[_mates(h, flipped) != h.values[::-1]] // n]] = True
    first = {int(c[0]): c for c in comps}
    pieces, by_size, images = [], {}, set()
    for c in comps:
        if int(c[0]) in images:
            continue
        image = n - 1 - c[::-1]
        closed = np.array_equal(c, image)
        other = not closed and len(c) > 1 and np.array_equal(first.get(int(image[0])), image)
        maps = (closed and len(c) % 2 == 0 or other) and not unmapped[c[0]] | unmapped[image[0]]
        if maps and closed:  # its mirror rows c[len(c) // 2:][::-1] are N-1-top
            pieces.append((c[None, :len(c) // 2], True, False))
            continue
        if maps:
            images.add(int(image[0]))
        by_size.setdefault((len(c), bool(maps)), []).append(c)
    if len(comps) == 1 and not pieces:
        return None
    return pieces + [(np.stack(cs), False, paired) for (_, paired), cs in by_size.items()]


def _gather(h: Entries, rows, s=0, split=None) -> np.ndarray:
    """The blocks H[rows[i], rows[i]] (k, m, m), read from h's entries; for a
    fold half 0 + H[top, top] + s H[top, N-1-top], top = rows[0], summed in
    that order.  With the `split` (ts, fixed) of one block b, its sub-block
    Q_t^T b Q_t (see `Piece`), formed straight from b's rows r, the f pairs and
    then `fixed`: b[r, r] + b[r, f + j] ts_j at each pair column j, the pair
    columns of the fixed rows times 1/sqrt 2, and the pair rows of the fixed
    columns their conjugate."""
    k, m = rows.shape
    lines, legs = rows, [(rows, np.arange(m), 1)]  # (H columns, output columns, factor)
    if split is not None:
        ts, fixed = split
        f = len(ts)
        lines, j = rows[:, np.concatenate([np.arange(f), fixed])], np.arange(f + len(fixed))
        legs = [(lines, j, 1), (rows[:, f:2 * f], j[:f], ts)]
    if s:
        legs = [leg for c, to, fac in legs for leg in ((c, to, fac), (h.side - 1 - c, to, s * fac))]
    lines = lines.ravel()
    start = np.searchsorted(h.keys, lines * h.side)
    count = np.searchsorted(h.keys, (lines + 1) * h.side) - start
    line = np.repeat(np.arange(lines.size), count)  # each entry's output row, and its index
    at = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    col, v = h.keys[at] % h.side, h.values[at]
    out = np.zeros((lines.size, len(legs[0][1])), h.values.dtype)
    to, factor = np.empty(h.side, np.intp), np.empty(h.side)
    for c, leg, fac in legs:  # a leg's columns are distinct, so no += below drops a repeat
        to.fill(-1)
        to[c], factor[c] = leg, fac
        dest = to[col]
        keep = dest >= 0
        out[line[keep], dest[keep]] += v[keep] * factor[col[keep]]
    out = out.reshape(k, -1, out.shape[1])
    if split is not None:
        out[:, f:, :f] *= np.sqrt(0.5)
        out[:, :f, f:] = out[:, f:, :f].conj().transpose(0, 2, 1)
    return out


def _mirror_split(rows: np.ndarray, fold: bool, reverse: np.ndarray) -> list[tuple] | None:
    """The sub-blocks of each block of a `_pieces` stack (a fold's halves, if
    `fold`) under the site reflection R (e_i -> e_reverse[i]), or None if R
    maps a block off itself.

    R sends block i's basis vector j to sign[j] times vector perm[j] (a fold
    half s's (e_top + s e_mirror)/sqrt 2 gains s if R top[j] is a mirror row).
    A block b that commutes with R is Q_t^T b Q_t, t = +-1, where Q_t has the
    columns (e_j + t sign_j e_perm_j)/sqrt 2 for pairs j < perm[j], then e_j
    for the fixed points with sign t.  Per block, its rows in the order (pairs,
    their perm[j], fixed points) and, per half, the `split` of each nonempty
    Q_t in that order (see `Piece`).
    """
    m, n = rows.shape[1], len(reverse)
    j, blocks = np.arange(m), []
    for b in rows:
        at = np.full(n, -1)
        at[b] = j
        if fold:
            at[n - 1 - b] = j + m
        image = at[reverse[b]]
        if image.min() < 0:
            return None
        perm, crossed = image % m, image >= m
        pairs, fixed = np.flatnonzero(perm > j), np.flatnonzero(perm == j)
        halves = []
        for s in (1, -1) if fold else (1,):
            sign = np.where(crossed, s, 1)
            splits = [(t * sign[pairs], 2 * len(pairs) + np.flatnonzero(sign[fixed] == t))
                      for t in (1, -1)]
            halves.append([sp for sp in splits if len(sp[0]) + len(sp[1])])
        blocks.append((b[np.concatenate([pairs, perm[pairs], fixed])], halves))
    return blocks


def _lift(split: tuple, x: np.ndarray, out: np.ndarray, at=None, scale=1.0) -> None:
    """out[at[j]] = scale (Q_t x)[j] for each row j of the block that Q_t
    reaches (at[j] = j if `at` is None): Q_t applied to the first axis of x, in
    the sub-block's coordinates, put in the block's."""
    ts, fixed = split
    f = len(ts)
    rows = (slice(0, f), slice(f, 2 * f), fixed) if at is None else (at[:f], at[f:2 * f], at[fixed])
    out[rows[0]] = x[:f] * (scale * np.sqrt(0.5))
    out[rows[1]] = x[:f] * (scale * np.sqrt(0.5) * ts)[:, None]
    out[rows[2]] = x[f:] * scale


class Piece(NamedTuple):
    """k solved m x m matrices of a Hermitian H: eigenvalues w (k, m) and
    eigenvectors u (k, m, m), each of a block of H that has the coordinates
    rows[i] of H or, for a fold half of `sign` s = +-1 (0 for none), the
    vectors (e_top + s e_{N-1-top}) / sqrt 2 at top = rows[i].

    A sub-block of the site reflection is a piece of its own: k = 1, `rows`
    its block's rows in the order (f pairs, their partners, fixed points),
    shared by the block's pieces, which come one after another, and `split`
    = (ts, fixed).  Row a < f of u stands for the block vector
    (e_a + ts[a] e_{f+a}) / sqrt 2, and row f + b for e_fixed[b].  Every
    reader applies that Q_t on the fly (`_lift`); no u is put in its block's
    coordinates for keeps.
    """

    w: np.ndarray
    u: np.ndarray
    rows: np.ndarray
    sign: int
    split: tuple | None


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H = V diag(w) V^dag, held as the solved pieces of V and never as V.

    `w` is every eigenvalue in ascending order.  A matrix with no exact
    structure is one piece whose u is np.linalg.eigh's own V, read in place;
    a block the site reflection splits is one piece per sub-block, whose u is
    never put in the block's coordinates for keeps.
    """

    w: np.ndarray
    pieces: tuple[Piece, ...]

    @property
    def _whole(self) -> np.ndarray | None:
        """V itself, if one piece is all of it."""
        pc = self.pieces[0]
        return pc.u[0] if pc.u.shape == (1, len(self.w), len(self.w)) else None

    def form(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """V diag(f(w)) V^dag for an elementwise f, from each piece's products:
        a sub-block's u f(w) u^dag is lifted to its block's coordinates by
        Q_t (.) Q_t^T and summed there; a block is put at its rows, and a
        fold's two half-size sums give its four quadrants."""
        v = self._whole
        if v is not None:
            return (v * f(self.w)) @ v.conj().T
        fs = [f(pc.w) for pc in self.pieces]
        n = len(self.w)
        out = np.zeros((n, n), np.result_type(*fs, *(pc.u for pc in self.pieces)))
        summed: dict = {}  # the block's products so far, by fold sign
        for i, (pc, fw) in enumerate(zip(self.pieces, fs)):
            g = (pc.u * fw[:, None, :]) @ pc.u.conj().transpose(0, 2, 1)
            if pc.split is not None:  # Q g Q^T: Q on the rows of g, then on its columns
                side = pc.rows.shape[1]
                qg, g = np.zeros((side, g.shape[1]), g.dtype), g[0]
                _lift(pc.split, g, qg)
                g = np.zeros((1, side, side), g.dtype)
                _lift(pc.split, qg.T, g[0].T)
            if pc.sign in summed:
                summed[pc.sign] += g
            else:
                summed[pc.sign] = g
            if i + 1 < len(self.pieces) and self.pieces[i + 1].rows is pc.rows:
                continue
            if not pc.sign:
                out[pc.rows[:, :, None], pc.rows[:, None, :]] = summed.pop(0)
            else:
                top, mirror = pc.rows[0], n - 1 - pc.rows[0]
                plus, minus = summed.pop(1)[0], summed.pop(-1)[0]
                out[np.ix_(top, top)] = out[np.ix_(mirror, mirror)] = (plus + minus) / 2
                out[np.ix_(top, mirror)] = out[np.ix_(mirror, top)] = (plus - minus) / 2
        return out

    def _columns(self, at: np.ndarray, scale: Callable | None = None):
        """Every column of V, times scale(w) if given, with row R of V put at
        row at[R]: (w, S) for each group of a piece's matrices, S of shape
        (N, group columns).  A group is one sub-block, or at most N/2 columns
        of a stack unless one matrix has more; this generator lets go of it
        before it makes the next."""
        n = len(self.w)
        for pc in self.pieces:
            k, m = pc.w.shape
            step = max(1, n // (2 * m))
            for i in range(0, k, step):
                part = slice(i, i + step)
                u, w, group = pc.u[part], pc.w[part], np.arange(len(pc.u[part]))[:, None]
                s = np.zeros((n, len(u), m), u.dtype)
                halves = ([(pc.rows, np.sqrt(0.5)), (n - 1 - pc.rows, pc.sign * np.sqrt(0.5))]
                          if pc.sign else [(pc.rows, 1.0)])  # a fold's [u; +-Ju] / sqrt 2
                for rows, f in halves:
                    if pc.split is not None:
                        _lift(pc.split, u[0], s[:, 0], at[rows[0]], f)
                    else:
                        s[at[rows[part]], group] = u if f == 1 else u * f
                if scale is not None:
                    s *= scale(w)
                yield w, s.reshape(n, -1)
                del s

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, V) with eigenvalue j for column j of V, V formed whole:
        the stored eigh output for one piece, a new array otherwise."""
        v = self._whole
        if v is not None:
            return self.w, v
        parts = list(self._columns(np.arange(len(self.w))))
        return np.concatenate([w.ravel() for w, _ in parts]), np.hstack([s for _, s in parts])


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """The thermal state exp(-H_R)/Z on a region, held as the spectrum of H_R.

    rho = V diag(p) V^dag, with the Chain's own Spectrum of H_R (not the
    Chain, so a state in the Chain's memo makes no cycle) and
    p = e^{-(w - w_min)} / sum e^{-(w - w_min)}, which cannot overflow.  `rho`
    is formed on first read; `marginal` of a proper subregion never forms it.
    """

    region: tuple[int, ...]
    spectrum: Spectrum = field(repr=False)
    local_dim: int

    @cached_property
    def _z(self) -> float:
        return _boltzmann(self.spectrum.w).sum()

    def p(self, w: np.ndarray) -> np.ndarray:
        """The state's eigenvalue at each eigenvalue w of H_R."""
        return np.exp(self.spectrum.w[0] - w) / self._z

    @cached_property
    def rho(self) -> LocalOperator:
        return _state(self.region, self.spectrum.form(self.p), self.local_dim)


class Chain:
    """Spectral context of one interaction under one dense-size budget.

    Each region Hamiltonian is assembled, checked for Hermiticity and
    diagonalized at most once, and only its spectrum is kept; it alone turns
    that into e^{tH_R} for any t, Gibbs states, marginals and log Z.
    Everything computed is kept until the context is dropped, so a
    context should live for one unit of work.  Every public function that
    takes an Interaction also takes a Chain; given an Interaction, it builds
    a Chain at DEFAULT_BUDGET.  `Chain(ia, budget)` is the only place a
    budget is set.
    """

    def __init__(self, ia: Interaction, budget: int = DEFAULT_BUDGET):
        self.ia = ia
        self.budget = budget
        self._memo: dict = {}

    @staticmethod
    def of(system: Interaction | Chain) -> Chain:
        """`system` itself if it is a Chain, else a new Chain on it."""
        return system if isinstance(system, Chain) else Chain(system)

    def cached(self, key, build: Callable[[], Any]):
        """The value stored under `key`, computed by `build()` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spectrum(self, region: Sequence[int]) -> Spectrum:
        """The Spectrum of H_R; H_R itself is not kept.

        H_R is assembled as its entries and solved by the blocks its exact
        structure gives (see `_pieces`), each gathered from the entries only to
        be solved; the site reflection splits a block once more if the terms in
        R are mirror images (see `_mirror_split`), and then each sub-block is
        gathered, solved and kept as a piece of its own before the next is
        gathered.  Only a matrix with neither is formed whole, for one
        `np.linalg.eigh`.
        """
        region = _region(region)

        def build():
            dim = self.ia.local_dim ** len(region)
            if dim > self.budget:
                raise BudgetError(dim, self.budget)
            h = hamiltonian_entries(self.ia, region)
            if not _is_hermitian(h):
                raise ValueError(f"the Hamiltonian of {region} is not Hermitian")
            blocks, n = _pieces(h), dim
            reverse = (np.arange(n).reshape((self.ia.local_dim,) * len(region)).T.ravel()
                       if len(region) > 1 and self.ia.is_mirror_symmetric(region) else None)
            if blocks is None:
                if reverse is None:
                    h = h.dense()
                    w, v = np.linalg.eigh(h)
                    return Spectrum(w, (Piece(w[None], v[None], np.arange(n)[None], 0, None),))
                blocks = [(np.arange(n)[None], False, False)]
            solved = []
            for rows, fold, paired in blocks:  # each (sub-)block gathered, solved and dropped
                halves, found = (1, -1) if fold else (0,), []
                splits = (_mirror_split(rows, fold, reverse)
                          if reverse is not None and rows.shape[1] > 1 else None)
                if splits is None:
                    mats = np.concatenate([_gather(h, rows, s) for s in halves])
                    w, u = (np.linalg.eigh(mats) if rows.shape[1] > 1
                            else (mats[:, 0, :].real, np.ones_like(mats)))
                    del mats
                    found = [Piece(w, u, rows, 0, None)] if not fold else [
                        Piece(w[i:i + 1], u[i:i + 1], rows, s, None) for i, s in enumerate(halves)]
                for b, parts in splits or ():
                    b = b[None]  # one array for the block's pieces
                    for s, subs in zip(halves, parts):
                        for split in subs:
                            w, u = np.linalg.eigh(_gather(h, b, s, split)[0])
                            found.append(Piece(w[None], u[None], b, s, split))
                solved += found
                if paired:  # the image sector: the same (w, u) at the rows N-1-rows
                    image = {id(pc.rows): n - 1 - pc.rows for pc in found}
                    solved += [pc._replace(rows=image[id(pc.rows)]) for pc in found]
            w = np.sort(np.concatenate([pc.w.ravel() for pc in solved]), kind="stable")
            return Spectrum(w, tuple(solved))

        return self.cached(("eigh", region), build)

    def exp_spectrum(self, region: Sequence[int], t: complex) -> Spectrum:
        """The Spectrum of H_R, checked that e^{tw} does not overflow on it."""
        spectrum = self.spectrum(region)
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite(np.exp(t * spectrum.w)))
        if not finite:
            raise ValueError(f"e^(tH) overflows on the spectrum of {_region(region)} at t={t}")
        return spectrum

    def exp(self, region: Sequence[int], t: complex) -> LocalOperator:
        """e^{t H_R}; complex t is fine."""
        m = self.exp_spectrum(region, t).form(lambda w: np.exp(t * w))
        return LocalOperator(_region(region), m, self.ia.local_dim)

    def log_partition_function(self, region: Sequence[int]) -> float:
        """log Tr e^{-H_R} = -w_min + log sum e^{-(w - w_min)}, finite at any coupling."""
        w = self.spectrum(region).w
        return float(-w[0] + np.log(_boltzmann(w).sum()))

    def gibbs(self, region: Sequence[int]) -> GibbsEnsemble:
        region = _region(region)
        return self.cached(("gibbs", region),
                           lambda: GibbsEnsemble(region, self.spectrum(region), self.ia.local_dim))

    def marginal(self, region: Sequence[int], x: Sequence[int]) -> LocalOperator:
        """rho_X of the Gibbs state on `region`, formed once per Chain."""
        region, x = _region(region), _region(x)
        return self.cached(("marginal", region, x), lambda: marginal(self.gibbs(region), x))


def gibbs(system: Interaction | Chain, region: Sequence[int]) -> GibbsEnsemble:
    return Chain.of(system).gibbs(region)


def marginal(g: GibbsEnsemble, x: Sequence[int]) -> LocalOperator:
    """rho_X = tr_{R\\X} rho, straight from the spectrum for a proper subregion.

    With S = V diag(sqrt p), its rows ordered (X legs, rest of R) and read as
    a d_X x (d_rest N) matrix, rho_X = S S^dag: a sum of d_X N m Grams, one
    per group of m columns of `Spectrum._columns`, with no N^3 product, no
    partial trace and no N x N copy of a split V.
    """
    x = _region(x)
    if not x or not set(x) <= set(g.region):
        raise GeometryError(f"{x} is not a nonempty subregion of {g.region}")
    if x == g.region:
        return g.rho
    d, n = g.local_dim, len(g.region)
    legs = [g.region.index(s) for s in x]
    legs += [i for i in range(n) if i not in legs]
    at = np.empty(d ** n, np.intp)  # row R of V goes to row at[R] of S
    at[np.arange(d ** n).reshape((d,) * n).transpose(legs).ravel()] = np.arange(d ** n)
    rho_x = None
    for _, s in g.spectrum._columns(at, lambda w: np.sqrt(g.p(w))):
        s = s.reshape(d ** len(x), -1)
        rho_x = s @ s.conj().T if rho_x is None else rho_x + s @ s.conj().T
        del s
    return _state(x, rho_x, d)


# ---------------------------------------------------------------------------
# Entropic quantities
# ---------------------------------------------------------------------------

def entropy(rho: LocalOperator) -> float:
    """von Neumann entropy in nats, with a defensive eigenvalue floor."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = np.clip(w, LOG_FLOOR, None)
    return float(-(w * np.log(w)).sum())


def _log_matrix(rho: LocalOperator) -> np.ndarray:
    w, v = np.linalg.eigh(rho.matrix)
    return (v * np.log(np.clip(w, LOG_FLOOR, None))) @ v.conj().T


def relative_entropy(rho: LocalOperator, sigma: LocalOperator) -> float:
    """Tr[rho (log rho - log sigma)] for states on the same support."""
    if rho.support != sigma.support:
        raise GeometryError("relative entropy requires matching supports")
    tr_rho_log_sigma = float(np.trace(rho.matrix @ _log_matrix(sigma)).real)
    return -entropy(rho) - tr_rho_log_sigma


def mutual_information_of(rho_ac: LocalOperator, cut_a: Sequence[int]) -> float:
    """I(A:C) = D(rho_AC || rho_A x rho_C) for a state across a cut."""
    cut_a = tuple(sorted(int(s) for s in cut_a))
    cut_c = tuple(s for s in rho_ac.support if s not in set(cut_a))
    if not cut_a or not cut_c or not set(cut_a) <= set(rho_ac.support):
        raise GeometryError("cut must split the support into two nonempty parts")
    rho_a = partial_trace(rho_ac, cut_c)
    rho_c = partial_trace(rho_ac, cut_a)
    product = embed(rho_a, rho_ac.support) @ embed(rho_c, rho_ac.support)
    return max(relative_entropy(rho_ac, product), 0.0)


def mutual_information(system: Interaction | Chain, regions: RegionsABC) -> float:
    rho_ac = Chain.of(system).marginal(regions.all_sites, regions.ac)
    return mutual_information_of(rho_ac, regions.a)


# ---------------------------------------------------------------------------
# Inequality checks consumed by the verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionRatioReport:
    z_a: float
    z_b: float
    z_ab: float
    ratio_bound_ok: bool          # Tr e^{-H'} / Tr e^{-H} <= e^{||H-H'||}
    size_bounds_ok: bool          # e^{(log d - J)|A|} <= Z_A <= e^{(log d + J)|A|}
    split_bounds_ok: bool         # e^{-rJ} <= Z_A Z_B / Z_AB <= e^{rJ}

    @property
    def all_ok(self) -> bool:
        return self.ratio_bound_ok and self.size_bounds_ok and self.split_bounds_ok


def _crossing_norm(ia: Interaction, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """||H_AB - H_A - H_B|| for A left of B, on the window W of the 2r sites
    around the cut: every term that crosses it lies in W, so the difference is
    H_W - H_{W n A} - H_{W n B}, embedded, and embedding keeps the norm."""
    r = ia.interaction_range
    if not r:
        return 0.0
    window = tuple(s for s in a + b if b[0] - r <= s < b[0] + r)
    w_a = tuple(s for s in window if s < b[0])
    w_b = tuple(s for s in window if s >= b[0])
    return op_norm(hamiltonian(ia, window) - (hamiltonian(ia, w_a) + hamiltonian(ia, w_b)))


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
    with np.errstate(over="ignore"):  # a Z beyond the float range is reported as inf
        z_a, z_b, z_ab = (float(np.exp(log_z[r])) for r in (a, b, ab))
    return PartitionRatioReport(z_a, z_b, z_ab, bool(ratio_ok), bool(size_ok), bool(split_ok))


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
