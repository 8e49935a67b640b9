"""Command-line driver: model files in, verification suites and scans out.

Exit codes: 0 pass, 1 property/certification failure, 2 config error,
3 resource (budget) error.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BudgetError, ChainsepError, ConfigError
from .expansionals import (
    LemmaReport,
    check_lemmas,
    covering_bound,
    estimate_uniform_bound,
    tail_norm_bound,
)
from .gibbs import DEFAULT_BUDGET, Chain, factorization_error, mutual_information
from .linalg import LocalOperator
from .model import ModelSpec, RegionsABC
from .separability import (
    TELESCOPE_S,
    VERDICT_SEPARABLE,
    TailCheck,
    _ac_negativity,
    certify_marginal,
    ppt_is_exact,
    tail_term,
)

_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return _FMT % x
    return str(x)


def _finite(x):
    """`x` with each float that is not finite, at any depth, as None: JSON's null."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _config_hash(cfg: dict) -> str:
    # the worker count never changes the output, so it is not part of the hash
    payload = {k: v for k, v in cfg.items() if k != "jobs"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_csv(path: Path, header_meta: dict, columns, rows):
    lines = [f"# chainsep {__version__}"]
    for key in sorted(header_meta):
        lines.append(f"# {key}={_fmt(header_meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


@functools.cache
def _openblas():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None."""
    maps = Path("/proc/self/maps")  # lists the mapped libraries, where there is a /proc
    paths = [ln.split()[-1] for ln in maps.read_text().splitlines()] if maps.exists() else []
    dll = next((ctypes.CDLL(p) for p in paths if "openblas" in Path(p).name.lower()), None)
    for p, s in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get, put = (getattr(dll, f"{p}_{op}_num_threads{s}", None) for op in ("get", "set"))
        if get is not None and put is not None:
            return get, put


def _pmap(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _run_items(fn, items, jobs: int, dim: int):
    """`_pmap` on one BLAS thread per item if `dim`, the largest matrix side of an
    item, is at most 256 (README "Performance"); the rule ignores `jobs`, since the
    BLAS thread count moves the output in the last bits."""
    blas = _openblas() if dim <= 256 else None
    if blas is not None:
        caller = blas[0]()
        blas[1](1)
    try:
        return _pmap(fn, items, jobs)
    finally:
        if blas is not None:
            blas[1](caller)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "seed": 0,
    "jobs": 1,
    "budget": DEFAULT_BUDGET,
    "instances": 100,
    "corpus": {"max_range": 2, "strength": 2.0, "min_sites": 4, "max_sites": 8},
}
# keys a config may set that have no default
_OPTIONAL = {"model", "geometry", "size_grid", "s_grid"}


def load_config(path: str, overrides: dict | None = None) -> dict:
    """The config at `path` over the defaults, with the non-None `overrides`
    (the command line's) applied, validated once."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    cfg.update({k: v for k, v in (overrides or {}).items() if v is not None})
    validate_config(cfg)
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_keys(section: dict, known, where: str) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def validate_config(cfg: dict) -> None:
    _check_keys(cfg, _DEFAULTS.keys() | _OPTIONAL, "config")
    if not isinstance(cfg["corpus"], dict):
        raise ConfigError("'corpus' must be an object")
    _check_keys(cfg["corpus"], _DEFAULTS["corpus"], "corpus")
    corpus = {**_DEFAULTS["corpus"], **cfg["corpus"]}
    if not (all(_is_int(corpus[k]) for k in ("max_range", "min_sites", "max_sites"))
            and corpus["max_range"] >= 1 and 3 <= corpus["min_sites"] <= corpus["max_sites"]):
        raise ConfigError("corpus needs integers max_range >= 1, 3 <= min_sites <= max_sites")
    if not _is_real(corpus["strength"]) or not 0 <= corpus["strength"] < np.inf:
        raise ConfigError("corpus 'strength' must be a finite number >= 0")
    # an unknown family, bad 'sites' or unknown params exit 2 here, not at run time
    ia = _model_spec(cfg).build() if "model" in cfg else None
    for key in ("seed", "jobs", "budget", "instances"):
        if not _is_int(cfg[key]) or cfg[key] < 0:
            raise ConfigError(f"{key!r} must be a nonnegative integer")
    for key in ("jobs", "instances"):
        if cfg[key] < 1:
            raise ConfigError(f"{key!r} must be >= 1")
    if "geometry" in cfg:
        geo = cfg["geometry"]
        if not isinstance(geo, dict) or not all(k in geo for k in ("a", "b", "c")):
            raise ConfigError("'geometry' must have lists 'a', 'b', 'c'")
        for part in ("a", "b", "c"):
            sizes = geo[part]
            if not sizes or not all(_is_int(v) and v >= 1 for v in sizes):
                raise ConfigError(f"geometry '{part}' must be a list of sizes >= 1")
        grid, dim = _geometry_grid(cfg)
        if dim > cfg["budget"]:
            na, nb, nc = max(grid, key=sum)
            raise ConfigError(
                f"grid point |A|={na},|B|={nb},|C|={nc} exceeds budget {cfg['budget']}"
            )
    if "s_grid" in cfg:
        sg = cfg["s_grid"]
        if not isinstance(sg, list) or not sg or not all(
            _is_real(s) and abs(s) <= 1 for s in sg
        ):
            raise ConfigError("'s_grid' must be a nonempty list of numbers s with |s| <= 1")
    if "size_grid" in cfg:
        sz = cfg["size_grid"]
        if not isinstance(sz, list) or not sz or not all(
            isinstance(p, list) and len(p) == 2 and all(_is_int(n) and n >= 1 for n in p)
            for p in sz
        ):
            raise ConfigError("'size_grid' must be a nonempty list of [n_x, n_y], sizes >= 1")
        if ia:
            _check_size_grid(sz, len(ia.sites))


def _check_size_grid(size_grid, sites: int) -> None:
    for nx, ny in size_grid:
        # a pair that fits nowhere in the chain would be skipped, silently
        if nx + ny > sites:
            raise ConfigError(f"size_grid pair [{nx}, {ny}] exceeds {sites} sites")


def _model_spec(cfg: dict) -> ModelSpec:
    if "model" not in cfg:
        raise ConfigError("this subcommand requires a 'model' section")
    model = cfg["model"]
    if not isinstance(model, dict):
        raise ConfigError("'model' must be an object")
    return ModelSpec.from_dict(model)


def _geometry(cfg: dict) -> dict:
    if "geometry" not in cfg:
        raise ConfigError("this subcommand requires a 'geometry' section")
    return cfg["geometry"]


def _meta(cfg: dict, **extra) -> dict:
    meta = {"config_hash": _config_hash(cfg), "seed": cfg["seed"]}
    meta.update(extra)
    return meta


def _random_spec(seed: int, corpus: dict) -> ModelSpec:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(corpus["min_sites"], corpus["max_sites"] + 1))
    r = int(rng.integers(1, corpus["max_range"] + 1))
    return ModelSpec(
        "random",
        {"range": r, "strength": corpus["strength"]},
        sites=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check_config(cfg: dict, out: Path) -> int:
    print("config ok")
    return 0


def cmd_verify_lemmas(cfg: dict, out: Path) -> int:
    corpus = dict(_DEFAULTS["corpus"])
    corpus.update(cfg.get("corpus", {}))
    budget = cfg["budget"]
    base_seed = cfg["seed"]

    def run_instance(i: int):
        seed = base_seed * 100003 + i
        spec = _random_spec(seed, corpus)
        ia = spec.build()
        n = len(ia.sites)
        rng = np.random.default_rng(seed + 1)
        na = int(rng.integers(1, max(2, n - 1)))
        nc = int(rng.integers(1, max(2, n - na)))
        nb = n - na - nc
        if nb < 1:
            na, nb, nc = 1, n - 2, 1
        regions = RegionsABC.from_sizes(na, nb, nc)
        # a random Hermitian test operator on A u C for the contraction check
        dim = ia.local_dim ** len(regions.ac)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x_op = LocalOperator(regions.ac, (x + x.conj().T) / 2, ia.local_dim)
        report = check_lemmas(Chain(ia, budget), regions, x_op)
        return (i, seed, n, na, nb, nc, *astuple(report))

    dim = 2 ** corpus["max_sites"]  # the corpus models are qubit chains
    rows = _run_items(run_instance, range(cfg["instances"]), cfg["jobs"], dim)
    columns = ["instance", "seed", "n", "n_a", "n_b", "n_c"]
    columns += [f.name for f in fields(LemmaReport)]
    _write_csv(out / "verify_lemmas.csv", _meta(cfg), columns, rows)
    all_ok = all(all(bool(v) for v in row[6:]) for row in rows)
    print(f"verify-lemmas: {'PASS' if all_ok else 'FAIL'} ({len(rows)} instances)")
    return 0 if all_ok else 1


def _geometry_grid(cfg: dict):
    """The (|A|, |B|, |C|) points of the geometry, and the side of the largest one's H."""
    geo = _geometry(cfg)
    grid = [(na, nb, nc) for na in geo["a"] for nb in geo["b"] for nc in geo["c"]]
    d = _model_spec(cfg).params.get("local_dim", 2) if "model" in cfg else 2
    return grid, d ** max(map(sum, grid))


def cmd_scan_decay(cfg: dict, out: Path) -> int:
    spec = _model_spec(cfg)
    budget = cfg["budget"]
    geo = _geometry(cfg)
    if len(geo["a"]) > 1 or len(geo["c"]) > 1:
        raise ConfigError("scan-decay scans |B| only: geometry 'a' and 'c' take one size each")
    (na,), (nc,) = geo["a"], geo["c"]

    # every nonzero tail, k < max(|A|, |C|), at the largest gap in the grid
    nb = max(geo["b"])
    chain = Chain(replace(spec, sites=na + nb + nc).build(), budget)
    regions = RegionsABC.from_sizes(na, nb, nc)
    g_emp = covering_bound(chain, regions, TELESCOPE_S)
    tail_rows = []
    for k in range(regions.kmax):
        t = tail_term(chain, regions, k)
        bound = tail_norm_bound(g_emp, k, chain.ia.interaction_range)
        tail_rows.append((k, t.norm, bound))
    _write_csv(
        out / "decay_tail.csv",
        _meta(cfg, g_emp=g_emp, n_a=na, n_b=nb, n_c=nc),
        ["k", "tail_norm", "bound"],
        tail_rows,
    )

    def run_gap(n_b: int):
        # the largest gap reuses the tail scan's Chain, which holds its spectrum
        gap = chain if n_b == nb else Chain(replace(spec, sites=na + n_b + nc).build(), budget)
        regions = RegionsABC.from_sizes(na, n_b, nc)
        fe = factorization_error(gap, regions)
        mi = mutual_information(gap, regions)
        return (n_b, fe.op_norm_err, fe.trace_norm_err, mi)

    dim = chain.ia.local_dim ** len(chain.ia.sites)  # the largest gap's chain
    gap_rows = _run_items(run_gap, sorted(geo["b"]), cfg["jobs"], dim)
    points = [(nb, mi) for nb, _, _, mi in gap_rows if mi > 1e-14]
    if len(points) >= 2:
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.log([p[1] for p in points])
        slope, intercept = np.polyfit(xs, ys, 1)
        fit = {"fit_C": float(np.exp(intercept)), "fit_alpha": float(-slope)}
    else:
        fit = {"fit_C": float("nan"), "fit_alpha": float("nan")}
    _write_csv(
        out / "decay_gap.csv",
        _meta(cfg, g_emp=g_emp, **fit),
        ["n_b", "factorization_op_norm", "factorization_trace_norm", "mutual_information"],
        gap_rows,
    )
    print(f"scan-decay: wrote {len(tail_rows)} tail rows, {len(gap_rows)} gap rows")
    return 0


def cmd_certify(cfg: dict, out: Path) -> int:
    spec = _model_spec(cfg)
    budget = cfg["budget"]
    model_id = hashlib.sha256(spec.canonical_json().encode()).hexdigest()[:12]

    def run_point(point):
        # one Chain, so every test below reads the one rho_AC it holds
        na, nb, nc = point
        ia = replace(spec, sites=na + nb + nc).build()
        chain = Chain(ia, budget)
        regions = RegionsABC.from_sizes(na, nb, nc)
        neg = _ac_negativity(chain, regions)  # held by the Chain for certify_marginal
        rho_cols = (
            neg.negativity,
            neg.min_pt_eig,
            mutual_information(chain, regions),
            factorization_error(chain, regions).op_norm_err,
            ppt_is_exact(ia.local_dim, na + nc),
        )
        rep = certify_marginal(chain, regions) if nb >= ia.interaction_range else None
        return point, rho_cols, rep

    grid, dim = _geometry_grid(cfg)
    results = _run_items(run_point, grid, cfg["jobs"], dim)
    rows = []
    margins_rows = []
    for (na, nb, nc), rho_cols, rep in results:
        if rep is None:
            rows.append((na, nb, nc, -1, "SkippedSmallB", float("nan"), *rho_cols))
            continue
        rows.append((na, nb, nc, rep.k0, rep.verdict, rep.reconstruction_rel_err, *rho_cols))
        margins_rows += [(na, nb, nc, rep.k0, *astuple(c)) for c in rep.per_k]
        # the report's own fields; `core` holds region-sized matrices, so it
        # stays out (and `asdict(rep)` would deep-copy it)
        payload = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "core"}
        payload["per_k"] = [asdict(c) for c in rep.per_k]
        text = json.dumps(_finite(payload), indent=2, allow_nan=False)
        (out / f"certify_a{na}_b{nb}_c{nc}.json").write_text(text)
    _write_csv(
        out / "certify_summary.csv",
        _meta(cfg, model_id=model_id),
        ["n_a", "n_b", "n_c", "k0", "verdict", "reconstruction_rel_err", "negativity",
         "min_pt_eig", "mutual_information", "factorization_op_norm", "ppt_exact"],
        rows,
    )
    if margins_rows:
        _write_csv(
            out / "certify_margins.csv",
            _meta(cfg),
            ["n_a", "n_b", "n_c", "k0", *(f.name for f in fields(TailCheck))],
            margins_rows,
        )

    # exit 0 iff, per (|A|,|C|) group, the certified points form a nonempty
    # suffix of the |B| scan
    groups: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for na, nb, nc, _, verdict, *_ in rows:
        groups.setdefault((na, nc), []).append((nb, verdict))
    all_ok = True
    for key, entries in groups.items():
        entries.sort()
        verdicts = [v for _, v in entries]
        certified = [v == VERDICT_SEPARABLE for v in verdicts]
        last_bad = max((i for i, c in enumerate(certified) if not c), default=-1)
        all_ok &= bool(certified) and last_bad < len(certified) - 1
    print(f"certify: {'PASS' if all_ok else 'FAIL'} ({len(rows)} grid points)")
    return 0 if all_ok else 1


def cmd_estimate_g(cfg: dict, out: Path) -> int:
    spec = _model_spec(cfg)
    ia = spec.build()
    size_grid = [tuple(p) for p in cfg.get("size_grid", [[2, 2], [2, 3], [3, 3]])]
    _check_size_grid(size_grid, len(ia.sites))  # check-config sees only a given grid
    s_grid = cfg.get("s_grid", [0.25, 0.5, 1.0])
    est = estimate_uniform_bound(Chain(ia, cfg["budget"]), size_grid, s_grid)
    _write_csv(
        out / "estimate_g.csv",
        _meta(cfg, g_emp=est.value),
        ["n_x", "n_y", "s", "norm_e", "norm_e_inv"],
        est.entries,
    )
    print(f"estimate-g: g_emp = {est.value:.12g}")
    return 0


_COMMANDS = {
    "verify-lemmas": cmd_verify_lemmas,
    "scan-decay": cmd_scan_decay,
    "certify": cmd_certify,
    "estimate-g": cmd_estimate_g,
    "check-config": cmd_check_config,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainsep",
        description="Verification suites and scans for thermal-chain separability.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--jobs", type=int, help="override the worker count")
    parser.add_argument("--budget", type=int, help="override the dense-size budget")
    args = parser.parse_args(argv)

    try:
        overrides = {key: getattr(args, key) for key in ("seed", "jobs", "budget")}
        cfg = load_config(args.config, overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except BudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChainsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
