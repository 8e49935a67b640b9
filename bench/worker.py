"""One workload process: set up, run the timed section once, check the outputs.

`run.py` starts a fresh process of this script for every repetition, so each
repetition pays import and set-up again and its peak RSS is its own.  The
process writes one JSON object to ``<out>/result.json``:

- ``setup_s``: from the moment the parent spawned the process (passed in as
  ``--spawned-at``, a ``time.monotonic`` reading, which is system-wide on
  Linux) to the first timed call;
- ``wall_s``, ``cpu_s``, ``peak_rss_mb`` of the timed section;
- ``items``: one entry per caller-visible unit of work, with its latency,
  whether its output check passed, and why not;
- ``csv`` (lemma-corpus only): header and data lines of each CSV written;
- ``layers`` (``--mode trace`` only): per-layer metrics from `tracer.Tracer`,
  which is installed before set-up and so covers the whole process.

Modes: ``run`` times the workload; ``trace`` times it under the tracer;
``setup`` stops after set-up; ``reference`` runs lemma-corpus at ``--jobs 1``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SD_REFERENCE = HERE / "sudden_death_reference.json"

# certify-random: ROADMAP baseline case, checked exactly at seed 1
CERTIFY_SIZES = {"full": (9, (2, 5, 2)), "tiny": (5, (1, 3, 1))}
CERTIFY_SEED1 = {"k0": 2, "attempted_k0": [1, 2]}
RECONSTRUCTION_TOL = 1e-9
NEGATIVITY_ZERO = 1e-12
# lemma-corpus: one sub-corpus per chain length, so every seed has the same
# mix of sizes (see README.md)
LEMMA_SIZES = {"full": (range(4, 9), 20), "tiny": (range(4, 6), 3)}
LEMMA_JOBS = 2
# sudden-death-tfi: |A| = |C| = 1 and |B| = 1..max
SD_MAX_B = {"full": 9, "tiny": 3}
SD_RTOL, SD_ATOL = 1e-6, 1e-12


def _item(latency, problems):
    return {"latency_s": latency, "ok": not problems, "problems": problems}


def _failed(latency, exc):
    return _item(latency, [f"raised {type(exc).__name__}: {exc}"])


# -- certify-random ------------------------------------------------------------

def certify_setup(chainsep, seed, size, out):
    n, geometry = CERTIFY_SIZES[size]
    ia = chainsep.builtin_models(
        "random", {"sites": n, "range": 2, "strength": 1.5, "seed": seed}
    )
    return {"ia": ia, "regions": chainsep.RegionsABC.from_sizes(*geometry)}


def certify_run(chainsep, state, seed, size, jobs, out):
    start = time.perf_counter()
    try:
        rep = chainsep.certify_marginal(state["ia"], state["regions"])
    except Exception as exc:
        return [_failed(time.perf_counter() - start, exc)], {}
    latency = time.perf_counter() - start
    problems = []
    if rep.verdict != chainsep.VERDICT_SEPARABLE:
        problems.append(f"verdict {rep.verdict}")
    if not rep.reconstruction_rel_err <= RECONSTRUCTION_TOL:
        problems.append(f"reconstruction_rel_err {rep.reconstruction_rel_err}")
    if not rep.negativity_cross_check <= NEGATIVITY_ZERO:
        problems.append(f"separable verdict but negativity {rep.negativity_cross_check}")
    if seed == 1 and size == "full":
        got = {"k0": rep.k0, "attempted_k0": list(rep.attempted_k0)}
        if got != CERTIFY_SEED1:
            problems.append(f"seed 1 expects {CERTIFY_SEED1}, got {got}")
    return [_item(latency, problems)], {}


# -- lemma-corpus ----------------------------------------------------------------

def lemma_setup(chainsep, seed, size, out):
    import chainsep.cli  # noqa: F401  (the workload enters through cli.main)

    sizes, instances = LEMMA_SIZES[size]
    corpora = []
    for i, n in enumerate(sizes):
        config = out / f"corpus_n{n}.json"
        corpus = {"max_range": 2, "strength": 2.0, "min_sites": n, "max_sites": n}
        config.write_text(json.dumps({"instances": instances, "corpus": corpus}))
        corpora.append((n, config, seed * len(sizes) + i))
    return {"corpora": corpora}


@contextlib.contextmanager
def _timed_pmap_items(cli, latencies):
    """Time each item of `cli._pmap` from its start to its end in the pool."""
    pmap = cli._pmap

    def timed(fn, items, jobs):
        def item(it):
            start = time.perf_counter()
            try:
                return fn(it)
            finally:
                latencies.append(time.perf_counter() - start)

        return pmap(item, items, jobs)

    cli._pmap = timed
    try:
        yield
    finally:
        cli._pmap = pmap


def _csv_rows(path: Path):
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    return header, data


def lemma_run(chainsep, state, seed, size, jobs, out):
    cli = chainsep.cli
    latencies: list[float] = []
    problems: list[list[str]] = []
    csv = {}
    with _timed_pmap_items(cli, latencies):
        for n, config, corpus_seed in state["corpora"]:
            expected = json.loads(config.read_text())["instances"]
            target = out / f"csv_jobs{jobs}" / f"n{n}"
            argv = ["verify-lemmas", "--config", str(config), "--out", str(target),
                    "--seed", str(corpus_seed), "--jobs", str(jobs)]
            try:
                cli.main(argv)
                header, rows = _csv_rows(target / "verify_lemmas.csv")
            except Exception as exc:
                problems += [[f"n={n} raised {type(exc).__name__}: {exc}"] for _ in range(expected)]
                continue
            csv[str(n)] = {"header": header, "rows": rows}
            for row in rows:
                passed = all(c in ("1", "True") for c in row.split(",")[6:])
                problems.append([] if passed else [f"n={n} row {row!r} is not PASS"])
            problems += [[f"n={n}: row missing"] for _ in range(expected - len(rows))]
    latencies += [0.0] * (len(problems) - len(latencies))
    return [_item(t, p) for t, p in zip(latencies, problems)], {"csv": csv}


# -- sudden-death-tfi -------------------------------------------------------------

def sd_params(seed: int) -> dict:
    table = json.loads(SD_REFERENCE.read_text())["entries"]
    return table[seed % len(table)]


def sd_points(chainsep, params, size):
    points = []
    for nb in range(1, SD_MAX_B[size] + 1):
        ia = chainsep.builtin_models(
            "tfi",
            {"sites": nb + 2, "coupling": params["coupling"], "field": params["field"]},
        )
        points.append((nb, ia, chainsep.RegionsABC.from_sizes(1, nb, 1)))
    return points


def sd_setup(chainsep, seed, size, out):
    params = sd_params(seed)
    return {"params": params, "points": sd_points(chainsep, params, size)}


def sd_scan(chainsep, points):
    """The library calls scripts/sudden_death_scan.py makes, per gap size."""
    for nb, ia, regions in points:
        start = time.perf_counter()
        try:
            g = chainsep.gibbs(ia, regions.all_sites)
            rho_ac = chainsep.marginal(g, regions.ac)
            neg = chainsep.negativity(rho_ac, (regions.a, regions.c)).negativity
            mi = chainsep.mutual_information(ia, regions)
        except Exception as exc:
            yield nb, time.perf_counter() - start, None, exc
            continue
        yield nb, time.perf_counter() - start, (neg, mi), None


def sd_run(chainsep, state, seed, size, jobs, out):
    ref = state["params"]
    items = []
    for nb, latency, values, exc in sd_scan(chainsep, state["points"]):
        if exc is not None:
            items.append(_failed(latency, exc))
            continue
        problems = []
        for key, got in zip(("negativity", "mutual_information"), values):
            want = ref[key][nb - 1]
            if not abs(got - want) <= SD_ATOL + SD_RTOL * abs(want):
                problems.append(f"|B|={nb} {key} {got!r} != reference {want!r}")
        items.append(_item(latency, problems))
    return items, {}


WORKLOADS = {
    "certify-random": (certify_setup, certify_run),
    "lemma-corpus": (lemma_setup, lemma_run),
    "sudden-death-tfi": (sd_setup, sd_run),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("run", "trace", "setup", "reference"), default="run")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    import chainsep

    setup, run = WORKLOADS[args.workload]
    jobs = 1 if args.mode == "reference" else LEMMA_JOBS
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        # installed before set-up, so the counts cover the whole process
        tracer = Tracer(chainsep)
    with tracer or contextlib.nullcontext():
        state = setup(chainsep, args.seed, args.size, args.out)
        result = {"setup_s": time.monotonic() - args.spawned_at, "chainsep": chainsep.__file__}
        if args.mode != "setup":
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            items, outputs = run(chainsep, state, args.seed, args.size, jobs, args.out)
            wall = time.perf_counter() - start
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            result.update(
                outputs,
                wall_s=wall,
                cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
                peak_rss_mb=ru1.ru_maxrss / 1024.0,
                items=items,
            )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.out / "spans.jsonl")
    (args.out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
