"""Finite-range interactions, interval geometry, and Hamiltonian assembly."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, GeometryError
from .linalg import LocalOperator, _as_matrix, are_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class Interaction:
    """A finite-range potential: map from site supports to Hermitian blocks.

    `interaction_range` is the maximal diameter of a term, where a
    nearest-neighbour bond has diameter 1.  `strength` is computed once from
    the terms as the per-site sup of summed term norms; the inverse
    temperature is absorbed into it.
    """

    local_dim: int
    sites: tuple[int, ...]
    terms: Mapping[tuple[int, ...], np.ndarray]
    interaction_range: int

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise GeometryError("sites must be strictly increasing")
        object.__setattr__(self, "sites", sites)
        terms = {}
        site_set = set(sites)
        try:
            for supp, mat in self.terms.items():
                supp = tuple(int(s) for s in supp)
                if any(b <= a for a, b in zip(supp, supp[1:])):
                    raise GeometryError(f"term support must be sorted: {supp}")
                if not set(supp) <= site_set:
                    raise GeometryError(f"term support {supp} outside sites")
                if supp and max(supp) - min(supp) > self.interaction_range:
                    raise GeometryError(
                        f"term {supp} exceeds declared range {self.interaction_range}"
                    )
                terms[supp] = _as_matrix(mat, len(supp), self.local_dim)
        finally:  # the terms before a malformed one are checked too: the first bad term is named
            bad = {supp for supps, stack in _stacks(terms)
                   for supp, ok in zip(supps, are_hermitian(stack)) if not ok}
            if bad:
                raise ValueError(f"term {next(s for s in terms if s in bad)} is not Hermitian")
        object.__setattr__(self, "terms", terms)

    @cached_property
    def strength(self) -> float:
        """Per-site sup of summed operator norms of the terms touching it."""
        per_site = {s: 0.0 for s in self.sites}
        for supp, nrm in _term_norms(self.terms).items():
            for s in supp:
                per_site[s] += nrm
        return max(per_site.values(), default=0.0)

    def is_mirror_symmetric(self, region: Sequence[int]) -> bool:
        """Whether reflecting `region` (position i to n-1-i) maps each term
        inside it, legs reversed, exactly onto the term on the image support.
        Read from the terms: H_R's float sums round differently on its two
        sides."""
        region = sorted(set(int(s) for s in region))
        pos, d = {s: i for i, s in enumerate(region)}, self.local_dim
        for supp, mat in self.terms.items():
            if set(supp) <= pos.keys():
                k, image = len(supp), tuple(region[-1 - pos[s]] for s in reversed(supp))
                legs = [*range(k)[::-1], *range(k, 2 * k)[::-1]]
                reflected = mat.reshape((d,) * 2 * k).transpose(legs).reshape(mat.shape)
                if not np.array_equal(self.terms.get(image), reflected):
                    return False
        return True


def _stacks(terms: Mapping[tuple[int, ...], np.ndarray]) -> list[tuple[list, np.ndarray]]:
    """The terms in stacks of one shape and dtype, each with its supports in term order."""
    groups: dict = {}
    for supp, mat in terms.items():
        groups.setdefault((mat.shape, mat.dtype), []).append(supp)
    return [(supps, np.stack([terms[s] for s in supps])) for supps in groups.values()]


def _term_norms(terms: Mapping[tuple[int, ...], np.ndarray]) -> dict[tuple[int, ...], float]:
    """Each Hermitian term's operator norm, in term order, from one eigvalsh per
    stack: bit for bit the `op_norm` of the term alone."""
    norms = {}
    for supps, stack in _stacks(terms):
        top = np.abs(np.linalg.eigvalsh(stack)).max(axis=-1, initial=0.0)
        norms.update(zip(supps, top.tolist()))
    return {supp: norms[supp] for supp in terms}


@dataclass(frozen=True)
class RegionsABC:
    """Tripartite interval geometry: contiguous adjacent A, B, C in order."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        for name, part in (("A", self.a), ("B", self.b), ("C", self.c)):
            part = tuple(int(s) for s in part)
            if not part:
                raise GeometryError(f"region {name} must be nonempty")
            if part != tuple(range(part[0], part[-1] + 1)):
                raise GeometryError(f"region {name} must be a contiguous interval")
            object.__setattr__(self, name.lower(), part)
        if self.a[-1] + 1 != self.b[0] or self.b[-1] + 1 != self.c[0]:
            raise GeometryError("regions must be adjacent in order A, B, C")

    @classmethod
    def from_sizes(cls, na: int, nb: int, nc: int) -> "RegionsABC":
        ab = na + nb
        return cls(tuple(range(na)), tuple(range(na, ab)), tuple(range(ab, ab + nc)))

    @property
    def all_sites(self) -> tuple[int, ...]:
        return self.a + self.b + self.c

    @property
    def ac(self) -> tuple[int, ...]:
        return self.a + self.c

    @property
    def kmax(self) -> int:
        """max(|A|, |C|): from this radius on, `clip` leaves A and C whole."""
        return max(len(self.a), len(self.c))

    def clip(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(a_k, c_k): the sites of A and of C within k of B.  This is the
        proof's one truncation: every k-truncated object lives on a_k, B, c_k."""
        if k < 0:
            raise GeometryError("k must be nonnegative")
        return self.a[max(len(self.a) - k, 0):], self.c[:k]


def k_neighborhood(regions: RegionsABC, k: int) -> tuple[int, ...]:
    """B widened by up to k sites on each side, clipped to the chain."""
    a_k, c_k = regions.clip(k)
    return a_k + regions.b + c_k


ASSEMBLY_BAND = 2**18  # the most numbers in a transient band or column group: 2 MB of doubles


class Entries(NamedTuple):
    """A side x side matrix as its nonzero entries: keys row * side + col, ascending."""

    keys: np.ndarray
    values: np.ndarray
    side: int

    def dense(self) -> np.ndarray:
        """The matrix itself, zero off the entries."""
        m = np.zeros(self.side**2, self.values.dtype)
        m[self.keys] = self.values
        return m.reshape(self.side, self.side)

    @classmethod
    def summed(cls, placed: Sequence[tuple[list[int], np.ndarray]], d: int, n: int) -> "Entries":
        """The sum of terms on n sites of dimension d, each given as the sorted
        positions P it acts on and its matrix.  A term puts its entry (a, b) at
        each row that reads a on P and column that reads b on P, the two
        agreeing off P.  The rows are summed a band at a time, each term added
        in place in the given order, in the terms' result dtype: `dense()` is,
        bit for bit, the embedded terms added one by one to zero."""
        dtype = np.result_type(float, *{m.dtype for _, m in placed})
        c = next(c for c in range(n + 1) if d ** (2 * n - c) <= ASSEMBLY_BAND or c == n)
        rows, keys, values = d ** (n - c), [], []
        for b, lead in enumerate(np.ndindex((d,) * c)):  # the rows that read `lead` on positions < c
            band = np.zeros((rows, d**n), dtype)
            for at, mat in placed:  # each term added in place to a view of the entries it reaches
                k = len(at)
                if k and at[0] >= c and at[-1] - at[0] == k - 1:
                    # I (x) M (x) I where the columns read `lead` too: M at each (l, :, r) block
                    shape = (d ** (at[0] - c), len(mat), d ** (n - at[-1] - 1))
                    own = band[:, b * rows:(b + 1) * rows].reshape(shape + shape)
                    np.einsum("larlbr->lrab", own)[...] += mat
                    continue
                # a digit per axis: off P a column reads its row's (`lead` before c), on P any
                y = {p: chr(65 + i) for i, p in enumerate(at)}
                row = "".join(chr(97 + q) for q in range(c, n))
                col = [(lead[q], "") if q < c and q not in y else (slice(None), y.get(q, chr(97 + q)))
                       for q in range(n)]
                view = np.einsum(f"{row}{''.join(a for _, a in col)}->{row}{''.join(y.values())}",
                                 band.reshape((d,) * (2 * n - c))[(...,) + tuple(i for i, _ in col)])
                m = mat.reshape((d,) * 2 * k)[tuple(lead[p] if p < c else slice(None) for p in at)]
                view += m.reshape([d if q in y else 1 for q in range(c, n)] + [d] * k)
            kept = np.flatnonzero(band != 0)
            keys.append(kept + b * band.size)
            values.append(band.ravel()[kept])
        return cls(np.concatenate(keys), np.concatenate(values), d**n)


def hamiltonian_entries(ia: Interaction, region: Sequence[int]) -> Entries:
    """H_R, the sum of all interaction terms fully contained in `region`, in term
    order, as its nonzero entries (see `Entries.summed`)."""
    region = tuple(sorted(set(int(s) for s in region)))
    if not region:
        raise GeometryError("hamiltonian of an empty region is undefined")
    if not set(region) <= set(ia.sites):
        raise GeometryError(f"region {region} has sites outside the chain {ia.sites}")
    pos = {s: i for i, s in enumerate(region)}
    inside = [([pos[s] for s in t], m) for t, m in ia.terms.items() if set(t) <= pos.keys()]
    return Entries.summed(inside, ia.local_dim, len(region))


def hamiltonian(ia: Interaction, region: Sequence[int]) -> LocalOperator:
    """Sum of all interaction terms fully contained in `region`, from its entries."""
    region = tuple(sorted(set(int(s) for s in region)))
    return LocalOperator(region, hamiltonian_entries(ia, region).dense(), ia.local_dim)


# ---------------------------------------------------------------------------
# Built-in model families
# ---------------------------------------------------------------------------

def _bonds(sites: tuple[int, ...]):
    return [(sites[i], sites[i + 1]) for i in range(len(sites) - 1)]


def _tfi(sites, coupling=1.0, field=1.0):
    terms = {}
    for bond in _bonds(sites):
        terms[bond] = -coupling * np.kron(PAULI_Z, PAULI_Z)
    for s in sites:
        terms[(s,)] = terms.get((s,), 0) + (-field) * PAULI_X
    return Interaction(2, sites, terms, 1)


def _classical_ising(sites, coupling=1.0, field=0.0):
    terms = {}
    for bond in _bonds(sites):
        terms[bond] = -coupling * np.kron(PAULI_Z, PAULI_Z)
    if field:
        for s in sites:
            terms[(s,)] = -field * PAULI_Z
    return Interaction(2, sites, terms, 1)


def _xxz(sites, jxy=1.0, jz=1.0, field=0.0):
    terms = {}
    for bond in _bonds(sites):
        # Y (x) Y is real, so the bond is kept real
        terms[bond] = jxy * (np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y).real)
        terms[bond] = terms[bond] + jz * np.kron(PAULI_Z, PAULI_Z)
    if field:
        for s in sites:
            terms[(s,)] = -field * PAULI_Z
    return Interaction(2, sites, terms, 1)


def _random(sites, range_=2, strength=2.0, seed=0, local_dim=2):
    """Random finite-range model, deliberately not translation invariant.

    Terms are drawn on all contiguous supports of diameter <= range_, each
    normalized by its operator norm and weighted, then globally rescaled so the
    per-site sum of their norms equals `strength`.
    """
    rng = np.random.default_rng(seed)
    d = local_dim
    drawn, weights = {}, {}
    n = len(sites)
    for length in range(1, range_ + 2):
        for i in range(n - length + 1):
            supp = tuple(sites[i : i + length])
            side = d**length
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal(
                (side, side)
            )
            drawn[supp], weights[supp] = (g + g.conj().T) / 2, rng.uniform(0.2, 1.0)
    terms, norms = {}, {}
    for supp, nrm in _term_norms(drawn).items():
        scale, u = max(nrm, 1e-12), weights[supp]
        terms[supp], norms[supp] = drawn[supp] / scale * u, nrm / scale * u  # a term, its norm
    j = max((sum(v for supp, v in norms.items() if s in supp) for s in sites), default=0.0)
    if j > 0:
        terms = {k: v * (strength / j) for k, v in terms.items()}
    return Interaction(d, sites, terms, range_)


_FAMILIES = {
    "zero": lambda sites, local_dim=2: Interaction(local_dim, sites, {}, 0),
    "tfi": _tfi,
    "classical_ising": _classical_ising,
    "xxz": _xxz,
    "random": _random,
}


def builtin_models(name: str, params: Mapping) -> Interaction:
    """Construct a named model family; see ModelSpec for the file schema."""
    if name not in _FAMILIES:
        raise ConfigError(
            f"unknown model family {name!r}; known: {sorted(_FAMILIES)}"
        )
    params = dict(params)
    n = params.pop("sites", None)
    if n is None:
        raise ConfigError("model params must include 'sites'")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"model 'sites' must be an integer, got {n!r}")
    sites = tuple(range(n))
    seed = params.pop("seed", None)
    if name == "random":
        params.setdefault("seed", 0)
        if seed is not None:
            params["seed"] = seed
        if "range" in params:
            params["range_"] = params.pop("range")
    try:
        return _FAMILIES[name](sites, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for family {name!r}: {exc}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """Serializable model description: family, params, sites, seed."""

    family: str
    params: dict = field(default_factory=dict)
    sites: int = 4
    seed: int | None = None

    def build(self) -> Interaction:
        params = dict(self.params)
        params["sites"] = self.sites
        if self.seed is not None:
            params["seed"] = self.seed
        return builtin_models(self.family, params)

    def canonical_json(self) -> str:
        payload = {
            "family": self.family,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "sites": self.sites,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
        try:
            return cls(
                family=data["family"],
                params=dict(data.get("params", {})),
                sites=data.get("sites", 4),
                seed=data.get("seed"),
            )
        except KeyError as exc:
            raise ConfigError(f"model description missing field {exc}") from exc
