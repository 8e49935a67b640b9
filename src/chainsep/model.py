"""Finite-range interactions, interval geometry, and Hamiltonian assembly."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, EmptyIntersectionError, GeometryError
from .linalg import LocalOperator, embed, op_norm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True, eq=False)
class Interaction:
    """A finite-range potential: map from site supports to Hermitian blocks.

    `interaction_range` is the maximal diameter of a term, where a
    nearest-neighbour bond has diameter 1.  `strength` is recomputed from
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
            op = LocalOperator(supp, mat, self.local_dim)  # checks shape, sets dtype
            if not op.is_hermitian():
                raise ValueError(f"term {supp} is not Hermitian")
            terms[supp] = op.matrix
        object.__setattr__(self, "terms", terms)

    @property
    def strength(self) -> float:
        """Per-site sup of summed operator norms of the terms touching it."""
        per_site = {s: 0.0 for s in self.sites}
        for supp, mat in self.terms.items():
            nrm = op_norm(LocalOperator(supp, mat, self.local_dim))
            for s in supp:
                per_site[s] += nrm
        return max(per_site.values(), default=0.0)


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
    def from_sizes(cls, na: int, nb: int, nc: int, first: int = 0) -> "RegionsABC":
        a = tuple(range(first, first + na))
        b = tuple(range(first + na, first + na + nb))
        c = tuple(range(first + na + nb, first + na + nb + nc))
        return cls(a, b, c)

    @property
    def all_sites(self) -> tuple[int, ...]:
        return self.a + self.b + self.c

    @property
    def ac(self) -> tuple[int, ...]:
        return self.a + self.c

    def part(self, which: str) -> tuple[int, ...]:
        table = {
            "A": self.a,
            "B": self.b,
            "C": self.c,
            "AB": self.a + self.b,
            "AC": self.a + self.c,
            "BC": self.b + self.c,
            "ABC": self.all_sites,
        }
        if which not in table:
            raise GeometryError(f"unknown region name {which!r}")
        return table[which]


def k_neighborhood(regions: RegionsABC, k: int) -> tuple[int, ...]:
    """B widened by up to k sites on each side, clipped to the chain."""
    if k < 0:
        raise GeometryError("k must be nonnegative")
    lo = max(regions.a[0], regions.b[0] - k)
    hi = min(regions.c[-1], regions.b[-1] + k)
    return tuple(range(lo, hi + 1))


def hamiltonian(ia: Interaction, region: Sequence[int]) -> LocalOperator:
    """Sum of all interaction terms fully contained in `region`.

    The matrix is allocated once, in the result dtype of the terms.  A term on
    consecutive sites of `region` is added in place to the diagonal blocks of
    a view, with no region-sized identity product; others go through `embed`.
    """
    region = tuple(sorted(set(int(s) for s in region)))
    if not region:
        raise GeometryError("hamiltonian of an empty region is undefined")
    d, n = ia.local_dim, len(region)
    pos = {s: i for i, s in enumerate(region)}
    inside = [(supp, m) for supp, m in ia.terms.items() if set(supp) <= pos.keys()]
    h = np.zeros((d**n, d**n), np.result_type(float, *{m.dtype for _, m in inside}))
    for supp, mat in inside:
        first = pos[supp[0]] if supp else 0
        if [pos[s] - first for s in supp] != list(range(len(supp))):
            h += embed(LocalOperator(supp, mat, d), region).matrix
            continue
        # a writable view: blocks[l, r] is the block h[(l, :, r), (l, :, r)]
        shape = (d**first, len(mat), d ** (n - first - len(supp)))
        blocks = np.einsum("larlbr->lrab", h.reshape(shape + shape))
        blocks += mat
    return LocalOperator(region, h, d)


def truncated_hamiltonian(
    ia: Interaction, regions: RegionsABC, which: str, k: int
) -> LocalOperator:
    """Hamiltonian of `which` clipped to the k-neighbourhood of B."""
    clipped = tuple(s for s in regions.part(which) if s in set(k_neighborhood(regions, k)))
    if not clipped:
        raise EmptyIntersectionError(
            f"{which} has empty intersection with the {k}-neighbourhood of B"
        )
    return hamiltonian(ia, clipped)


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

    Terms are drawn on all contiguous supports of diameter <= range_, then
    globally rescaled so the recomputed per-site strength equals `strength`.
    """
    rng = np.random.default_rng(seed)
    d = local_dim
    terms = {}
    n = len(sites)
    for length in range(1, range_ + 2):
        for i in range(n - length + 1):
            supp = tuple(sites[i : i + length])
            side = d**length
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal(
                (side, side)
            )
            h = (g + g.conj().T) / 2
            h = h / max(op_norm(LocalOperator(supp, h, d)), 1e-12)
            terms[supp] = h * rng.uniform(0.2, 1.0)
    ia = Interaction(d, sites, terms, range_)
    j = ia.strength
    if j > 0 and strength > 0:
        terms = {k: v * (strength / j) for k, v in terms.items()}
        ia = Interaction(d, sites, terms, range_)
    return ia


_FAMILIES = {
    "zero": lambda sites, **kw: Interaction(kw.get("local_dim", 2), sites, {}, 0),
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
    if isinstance(n, int):
        sites = tuple(range(n))
    else:
        sites = tuple(int(s) for s in n)
    seed = params.pop("seed", None)
    if name == "random":
        params.setdefault("seed", 0)
        if seed is not None:
            params["seed"] = seed
        if "range" in params:
            params["range_"] = params.pop("range")
    try:
        return _FAMILIES[name](sites, **params)
    except TypeError as exc:
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

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model description is not valid JSON: {exc}") from exc
