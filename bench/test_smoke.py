"""Smoke test: every workload runs at a tiny size and prints every metric.

Run from the repository root:
    python3 -m pytest bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("# env ")
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source():
    bare = ROOT / ".bench_out" / "bare-checkout"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    bench = bare / "bench"
    bench.mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)


def test_tracer_restores_every_name():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import chainsep
    from tracer import LAYERS, Tracer

    def snapshot():
        mods = [chainsep] + [sys.modules[f"chainsep.{n}"] for n in LAYERS]
        names = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        op = chainsep.LocalOperator
        names["matmul"], names["is_hermitian"] = op.__matmul__, op.is_hermitian
        names["eigh"], names["svd"] = np.linalg.eigh, np.linalg.svd
        return names

    import chainsep.cli  # noqa: F401

    before = snapshot()
    with Tracer(chainsep) as tr:
        assert chainsep.herm_exp is not before[("chainsep", "herm_exp")]
        assert chainsep.gibbs.__wrapped__ is before[("chainsep.gibbs", "gibbs")]
        ia = chainsep.builtin_models("tfi", {"sites": 3})
        chainsep.gibbs(ia, (0, 1, 2))
    assert snapshot() == before
    m = tr.metrics()
    assert m["gibbs.gibbs.calls"] == 1
    assert m["solve.eigh.calls"] >= 1
