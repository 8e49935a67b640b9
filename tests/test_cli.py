import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainsep import (Chain, ModelSpec, RegionsABC, cli, factorization_error,
                      mutual_information, negativity, partial_transpose)
from chainsep.cli import load_config, main, validate_config
from chainsep.errors import ConfigError
from helpers import hamiltonian, matrix_digest, record_eigh, record_solver


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TFI_MODEL = {"family": "tfi", "params": {}, "sites": 6, "seed": 0}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_load_config_defaults(tmp_path):
    path = _write(tmp_path, "c.json", {"seed": 7})
    cfg = load_config(path)
    assert cfg["seed"] == 7
    assert cfg["budget"] == 4096


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_validate_rejects_negative_tolerance(tmp_path):
    # no subcommand reads a tolerance from the config, so `tolerances` is an
    # unknown key whatever its value
    for value in ({"negativity_zero": -1e-12}, {"negativity_zero": 1e-12}, 5):
        path = _write(tmp_path, "c.json", {"tolerances": value})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)
        assert main(["check-config", "--config", path]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"instance": 3},
        {"seed": 1, "model": TFI_MODEL, "sites": 6},
        {"corpus": {"max_sites": 6, "min_site": 4}},
        # a misspelt 'sites' would leave the model at its default 4 sites
        {"model": {"family": "tfi", "site": 12}},
        {"model": TFI_MODEL, "geometry": {"a": [1], "b": [3], "c": [1], "d": [2]}},
    ],
)
def test_unknown_config_keys_exit_2(tmp_path, payload):
    path = _write(tmp_path, "c.json", payload)
    with pytest.raises(ConfigError, match="unknown (config|corpus|model|geometry) key"):
        load_config(path)
    assert main(["check-config", "--config", path]) == 2
    # a typo must not fall back to the default silently (100 instances here)
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "verify_lemmas.csv").exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"jobs": True},
        {"instances": True},
        {"seed": True},
        {"model": TFI_MODEL, "geometry": {"a": [True], "b": [2], "c": [1]}},
        {"model": TFI_MODEL, "size_grid": [[True, 1]]},
        {"model": {"family": "random", "sites": 4, "seed": True}},
    ],
)
def test_bool_is_not_an_integer(tmp_path, payload):
    assert main(["check-config", "--config", _write(tmp_path, "c.json", payload)]) == 2


@pytest.mark.parametrize(
    "grids",
    [
        {"s_grid": ["x"]},
        {"s_grid": []},
        {"s_grid": 0.5},
        {"s_grid": [0.5, 1.5]},
        {"s_grid": [-1.01]},
        {"s_grid": [True]},
        {"size_grid": [[4, 4]]},  # 8 > 6 sites: no placement, a vacuous g_emp = 1
        {"size_grid": [[1, 1], [3, 4]]},
        {"size_grid": []},
        {"size_grid": [[0, 2]]},
        {"size_grid": [[2]]},
        {"size_grid": [[1.5, 2]]},
        {"size_grid": [2, 2]},
    ],
)
def test_check_config_rejects_bad_estimate_g_grids(tmp_path, grids):
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, **grids})
    assert main(["check-config", "--config", path]) == 2
    assert main(["estimate-g", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "estimate_g.csv").exists()


def test_estimate_g_rejects_a_default_grid_that_does_not_fit(tmp_path, capsys):
    """The default size_grid, [[2, 2], [2, 3], [3, 3]], is not a config key, so
    check-config passes it; estimate-g checks its pairs as it would a given grid."""
    model = dict(TFI_MODEL, sites=5)
    path = _write(tmp_path, "c.json", {"model": model})
    assert main(["check-config", "--config", path]) == 0
    assert main(["estimate-g", "--config", path, "--out", str(tmp_path)]) == 2
    assert "size_grid pair [3, 3] exceeds 5 sites" in capsys.readouterr().err
    assert not (tmp_path / "estimate_g.csv").exists()
    given = _write(tmp_path, "given.json", {"model": model, "size_grid": [[3, 3]]})
    assert main(["estimate-g", "--config", given, "--out", str(tmp_path)]) == 2


def _tfi_at(coupling, sites):
    return dict(TFI_MODEL, params={"coupling": coupling}, sites=sites)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command,config",
    [
        # Z_N / Z_B = e^800 at k = 2
        ("certify", {"model": _tfi_at(200.0, 7), "geometry": {"a": [2], "b": [3], "c": [2]}}),
        # finite factors, but F(t) of the interface norms overflows when formed
        ("estimate-g", {"model": _tfi_at(200.0, 6), "size_grid": [[2, 2]], "s_grid": [1.0]}),
        # e^{-H} of the four sites XY overflows
        ("estimate-g", {"model": _tfi_at(800.0, 6), "size_grid": [[2, 2]], "s_grid": [1.0]}),
    ],
)
def test_a_number_beyond_the_float_range_is_an_error(tmp_path, capsys, command, config):
    path = _write(tmp_path, "c.json", config)
    assert main(["check-config", "--config", path]) == 0
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _reject(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "model",
    [{"family": "xxz", "params": {"jxy": 80.0, "jz": 80.0}, "sites": 7}, _tfi_at(150.0, 7)],
    ids=["xxz-80", "tfi-150"],
)
def test_certify_writes_strict_json_where_the_reconstruction_overflows(tmp_path, capsys, model):
    """The reconstruction overflows, and its error is not a number: the JSON has
    null where it would hold NaN, and every file reads under a strict parser.
    The summary CSV keeps its nan."""
    path = _write(tmp_path, "c.json", {"model": model, "geometry": {"a": [2], "b": [3], "c": [2]}})
    assert main(["certify", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = [json.loads(f.read_text(), parse_constant=_reject)
               for f in sorted((tmp_path / "out").glob("*.json"))]
    assert len(reports) == 1 and reports[0]["reconstruction_rel_err"] is None
    assert reports[0]["verdict"] == "Undetermined"
    row = (tmp_path / "out" / "certify_summary.csv").read_text().splitlines()[-1].split(",")
    assert row[4:6] == ["Undetermined", "nan"]


def test_check_config_accepts_edge_estimate_g_grids(tmp_path):
    # |s| = 1 and n_x + n_y = sites are allowed
    payload = {"model": TFI_MODEL, "size_grid": [[3, 3], [1, 1]], "s_grid": [-1, 1.0, 0]}
    assert main(["check-config", "--config", _write(tmp_path, "c.json", payload)]) == 0


@pytest.mark.parametrize(
    "corpus",
    [
        {"min_sites": 9, "max_sites": 4},
        {"min_sites": 2, "max_sites": 4},
        {"max_sites": 4.5},
        {"strength": "x"},
        {"strength": -1.0},
        {"max_range": 0},
        {"max_range": True},
    ],
)
def test_check_config_rejects_bad_corpus(tmp_path, corpus):
    path = _write(tmp_path, "c.json", {"instances": 2, "corpus": corpus})
    assert main(["check-config", "--config", path]) == 2
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "verify_lemmas.csv").exists()


def test_check_config_accepts_the_smallest_corpus(tmp_path):
    # three sites are the fewest that hold A, B and C
    corpus = {"min_sites": 3, "max_sites": 3, "max_range": 1, "strength": 0}
    path = _write(tmp_path, "c.json", {"instances": 2, "corpus": corpus})
    assert main(["check-config", "--config", path]) == 0
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "model",
    [
        {"family": "nope", "sites": 4},
        {"family": "tfi", "sites": 4.5},
        {"family": "tfi", "sites": "4"},
        {"family": "tfi", "sites": True},
        {"family": "tfi", "sites": 4, "params": {"fields": 1.0}},
        {"family": "zero", "sites": 4, "params": {"coupling": 1.0}},
        {"family": "random", "sites": 4, "params": {"local_dim": 1}},
        {"family": "tfi", "sites": [0, 1, 2]},  # 'sites' is a count, not a list
        {"family": ["tfi"], "sites": 4},
        {"family": "tfi", "sites": 4, "params": 5},
        {"family": "tfi", "sites": 4, "params": "ab"},
        {"family": "tfi", "sites": 4, "params": None},
        {"family": "tfi", "sites": -2},
    ],
)
def test_check_config_builds_the_model(tmp_path, model):
    path = _write(tmp_path, "c.json", {"model": model})
    assert main(["check-config", "--config", path]) == 2
    assert main(["estimate-g", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "estimate_g.csv").exists()


@pytest.mark.parametrize(
    "geometry",
    [
        {"a": 1, "b": [3], "c": [1]},  # a size, not a list of sizes
        {"a": [1], "b": [], "c": [1]},
        {"a": [1], "b": [0], "c": [1]},
        {"a": [1], "b": [3]},
    ],
)
def test_check_config_rejects_bad_geometry(tmp_path, geometry):
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["check-config", "--config", path]) == 2
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "certify_summary.csv").exists()


def test_validate_rejects_oversized_geometry(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {
            "model": TFI_MODEL,
            "geometry": {"a": [4], "b": [8], "c": [4]},
            "budget": 4096,
        },
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_validate_rejects_zero_instances(tmp_path):
    path = _write(tmp_path, "c.json", {"instances": 0})
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path)]) == 2


def test_validate_budget_uses_local_dim(tmp_path):
    # 7 qutrits need 3**7 = 2187 > 1000, although 2**7 = 128 would fit
    model = {"family": "random", "params": {"local_dim": 3}, "sites": 7, "seed": 0}
    path = _write(
        tmp_path,
        "c.json",
        {"model": model, "geometry": {"a": [1], "b": [5], "c": [1]}, "budget": 1000},
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_validate_rejects_the_s_key(tmp_path):
    # the telescoping identity holds only at s = 1/2, so s is no option: the
    # key is unknown, whatever its value
    for i, s in enumerate((0.25, 0.5)):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(_write(tmp_path, f"c{i}.json", {"s": s}))
    assert "s" not in load_defaults()


def test_validate_rejects_bad_k_range():
    # scan-decay's radii come from the geometry, so 'k_range' is no option: the
    # key is unknown, whatever its value
    for kr in ([3, 1], [1, 3]):
        cfg = load_defaults()
        cfg["k_range"] = kr
        with pytest.raises(ConfigError, match="unknown config key"):
            validate_config(cfg)
    assert "k_range" not in load_defaults()


def load_defaults():
    from chainsep.cli import _DEFAULTS

    cfg = json.loads(json.dumps(_DEFAULTS))
    return cfg


def test_exit_code_config_error(tmp_path):
    path = _write(tmp_path, "c.json", {"budget": -1})
    assert main(["check-config", "--config", path]) == 2
    # a subcommand that needs a model, given none
    path = _write(tmp_path, "c.json", {})
    assert main(["estimate-g", "--config", path, "--out", str(tmp_path)]) == 2


def test_exit_code_resource_error(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {"model": TFI_MODEL, "size_grid": [[3, 3]], "s_grid": [0.5]},
    )
    # budget override below the needed dense dimension
    code = main(
        ["estimate-g", "--config", path, "--out", str(tmp_path), "--budget", "8"]
    )
    assert code == 3


def test_config_is_validated_once(tmp_path, monkeypatch):
    """load_config applies the overrides, then validates once (building the
    model once); the one grid point builds it again."""
    build, calls = ModelSpec.build, []
    monkeypatch.setattr(ModelSpec, "build", lambda spec: calls.append(spec) or build(spec))
    geometry = {"a": [1], "b": [5], "c": [1]}
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["certify", "--config", path, "--out", str(tmp_path), "--seed", "3"]) == 0
    assert len(calls) == 2
    # the overrides are validated: 7 sites need a budget of 128
    assert main(["certify", "--config", path, "--out", str(tmp_path), "--budget", "64"]) == 2


def test_check_config_ok(tmp_path):
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL})
    assert main(["check-config", "--config", path]) == 0


def test_verify_lemmas_small_corpus(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {
            "instances": 4,
            "corpus": {"max_range": 2, "strength": 1.5, "min_sites": 4, "max_sites": 6},
        },
    )
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "verify_lemmas.csv").read_text()
    assert text.startswith("# chainsep")
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0].startswith("instance,seed,")
    assert len(body) == 5


def test_certify_summary_outputs(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {
            "model": TFI_MODEL,
            "geometry": {"a": [1], "b": [2, 3], "c": [1]},
        },
    )
    # neither gap certifies, so the suffix gate fails
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    text = (tmp_path / "certify_summary.csv").read_text()
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(body) == 3
    # TFI thermal marginals across a gap >= 2 carry no negativity
    for row in _csv_records(tmp_path / "certify_summary.csv"):
        assert float(row["negativity"]) <= 1e-12


def test_certify_writes_the_summary_and_one_json_per_point(tmp_path):
    # 1|5|2 certifies at k0 = 1 with a tail at k = 1, so its JSON has a per_k entry
    model = {"family": "classical_ising", "params": {"field": 0.5}, "sites": 8, "seed": 0}
    path = _write(tmp_path, "c.json", {"model": model,
                                       "geometry": {"a": [1], "b": [4, 5], "c": [2]}})
    out = tmp_path / "out"
    assert main(["certify", "--config", path, "--out", str(out)]) == 0
    assert json.loads((out / "certify_a1_b5_c2.json").read_text())["per_k"]
    names = sorted(p.name for p in out.iterdir())
    assert names == ["certify_a1_b4_c2.json", "certify_a1_b5_c2.json", "certify_summary.csv"]


def test_scan_decay_outputs(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {
            "model": TFI_MODEL,
            "geometry": {"a": [1], "b": [2, 3, 4], "c": [1]},
        },
    )
    assert main(["scan-decay", "--config", path, "--out", str(tmp_path)]) == 0
    tail = (tmp_path / "decay_tail.csv").read_text()
    gap = (tmp_path / "decay_gap.csv").read_text()
    assert "# g_emp=" in tail
    assert "# fit_alpha=" in gap
    # mutual information decays with the gap, so the fitted rate is positive
    alpha = [l for l in gap.splitlines() if l.startswith("# fit_alpha=")][0]
    assert float(alpha.split("=")[1]) > 0


@pytest.mark.parametrize("na, nc", [(1, 1), (2, 2), (1, 3)])
def test_scan_decay_writes_every_nonzero_tail(tmp_path, na, nc):
    """One tail row per radius k = 0 .. max(|A|, |C|) - 1, and none reads 0:
    from max(|A|, |C|) on, every tail is exactly 0."""
    geometry = {"a": [na], "b": [2, 3], "c": [nc]}
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["scan-decay", "--config", path, "--out", str(tmp_path)]) == 0
    rows = _csv_records(tmp_path / "decay_tail.csv")
    assert [int(r["k"]) for r in rows] == list(range(max(na, nc)))
    assert all(float(r["tail_norm"]) > 0 for r in rows)


def test_scan_decay_takes_one_size_of_a_and_c(tmp_path):
    geometry = {"a": [1, 2], "b": [2, 3], "c": [1, 3]}
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["scan-decay", "--config", path, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))
    # one size each is fine, and the header names it
    geometry.update(a=[2], c=[1])
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["scan-decay", "--config", path, "--out", str(tmp_path)]) == 0
    tail = (tmp_path / "decay_tail.csv").read_text().splitlines()
    assert "# n_a=2" in tail and "# n_c=1" in tail


def test_certify_suffix_gate(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {
            "model": TFI_MODEL,
            "geometry": {"a": [1], "b": [4, 5], "c": [1]},
        },
    )
    code = main(["certify", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "certify_summary.csv").read_text()
    body = [l for l in summary.splitlines() if not l.startswith("#")]
    assert body[-1].split(",")[4] == "SeparableByConstruction"
    report = json.loads((tmp_path / "certify_a1_b5_c1.json").read_text())
    assert report["verdict"] == "SeparableByConstruction"
    # the per-point JSON is the report's fields, without the core matrices
    keys = {
        "verdict",
        "k0",
        "attempted_k0",
        "gamma_k0",
        "z_ratio",
        "reconstruction_rel_err",
        "negativity_cross_check",
        "per_k",
    }
    assert set(report) == keys
    # certified at k0 = 1 < |A|, so this point has one tail check
    ising = {"family": "classical_ising", "params": {"field": 0.5}, "sites": 6, "seed": 0}
    geometry = {"a": [2], "b": [5], "c": [1]}
    path = _write(tmp_path, "i.json", {"model": ising, "geometry": geometry})
    assert main(["certify", "--config", path, "--out", str(tmp_path / "ising")]) == 0
    report = json.loads((tmp_path / "ising" / "certify_a2_b5_c1.json").read_text())
    assert set(report) == keys and report["k0"] == 1
    assert [set(c) for c in report["per_k"]] == [
        {"k", "tail_norm", "identity_budget", "ball_margin"}
    ]


def test_certify_gate_fails_a_scan_whose_certified_points_are_no_suffix(tmp_path, monkeypatch):
    """Certified at |B| = 3 and 5 but not 4: the largest gap certifies, yet the
    scan is no suffix, so certify exits 1."""
    verdicts = {3: "SeparableByConstruction", 4: "Undetermined", 5: "SeparableByConstruction"}
    certify = cli.certify_marginal

    def stub(chain, regions):
        return replace(certify(chain, regions), verdict=verdicts[len(regions.b)])

    monkeypatch.setattr(cli, "certify_marginal", stub)
    geometry = {"a": [1], "b": [3, 4, 5], "c": [1]}
    path = _write(tmp_path, "c.json", {"model": TFI_MODEL, "geometry": geometry})
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "certify_summary.csv").read_text().splitlines()[-3:]
    assert [r.split(",")[4] for r in rows] == [verdicts[3], verdicts[4], verdicts[5]]


def test_estimate_g_output(tmp_path):
    path = _write(
        tmp_path,
        "c.json",
        {"model": TFI_MODEL, "size_grid": [[1, 1], [2, 2]], "s_grid": [0.5]},
    )
    assert main(["estimate-g", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "estimate_g.csv").read_text()
    assert "# g_emp=" in text


def test_byte_determinism(tmp_path):
    payload = {
        "instances": 3,
        "seed": 5,
        "corpus": {"max_range": 2, "strength": 1.5, "min_sites": 4, "max_sites": 6},
    }
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path = _write(tmp_path, "c.json", payload)
    assert main(["verify-lemmas", "--config", path, "--out", str(out_a)]) == 0
    assert main(["verify-lemmas", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "verify_lemmas.csv").read_bytes() == (
        out_b / "verify_lemmas.csv"
    ).read_bytes()


def test_byte_determinism_across_jobs(tmp_path):
    payload = {
        "model": TFI_MODEL,
        "geometry": {"a": [1], "b": [2, 3], "c": [1]},
    }
    path = _write(tmp_path, "c.json", payload)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["certify", "--config", path, "--out", str(out_a)]) == 1
    assert main(["certify", "--config", path, "--out", str(out_b), "--jobs", "2"]) == 1
    # the worker count is left out of the config hash, so every file, its
    # header included, is the same
    names = sorted(p.name for p in out_a.iterdir())
    assert "certify_summary.csv" in names and names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, config",
    [
        # reaches 1|6|1 (dim 256), where a BLAS thread count that followed
        # `jobs` changes the last bits of certify_summary.csv
        ("certify", "tfi_certify.json"),
        # the certify config with tails: every point tries k0 = 1, then 2
        ("certify", "random_certify.json"),
        ("scan-decay", "tfi_sudden_death.json"),
    ],
)
def test_checked_in_config_byte_identical_across_jobs(tmp_path, command, config):
    path = str(CONFIGS / config)
    out = {}
    for jobs in ("1", "2"):
        out[jobs] = tmp_path / f"jobs{jobs}"
        assert main([command, "--config", path, "--out", str(out[jobs]), "--jobs", jobs]) == 0
    names = sorted(p.name for p in out["1"].iterdir() if p.suffix in (".csv", ".json"))
    assert names and names == sorted(p.name for p in out["2"].iterdir())
    for name in names:
        assert (out["1"] / name).read_bytes() == (out["2"] / name).read_bytes(), name


def _numpy_links_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the caller's count set to 2."""
    if not _numpy_links_openblas():
        pytest.skip("numpy links no OpenBLAS")
    blas = cli._openblas()
    assert blas is not None, "numpy links OpenBLAS, but _openblas() did not find it"
    get, put = blas
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("this OpenBLAS runs one thread only")
        yield get
    finally:
        put(before)


def test_openblas_is_numpys_with_another_openblas_loaded_first():
    """scipy's wheels bring an OpenBLAS of their own; imported first, it is
    mapped before numpy's, and setting its thread count would not pin numpy's."""
    pytest.importorskip("scipy")
    if not _numpy_links_openblas():
        pytest.skip("numpy links no OpenBLAS")
    code = (
        "import scipy.linalg\n"
        "from chainsep import cli\n"
        "blas = cli._openblas()\n"
        "assert blas is not None, 'no OpenBLAS found'\n"
        "get, put = blas\n"
        "put(1)\n"
        "assert get() == 1, get()\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n_items", [1, 4])
def test_items_up_to_256_run_on_one_blas_thread_each(blas_threads, jobs, n_items):
    read = cli._run_items(lambda _: blas_threads(), range(n_items), jobs, 256)
    assert read == [1] * n_items
    assert blas_threads() == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_items_above_256_keep_the_callers_blas_threads(blas_threads, jobs):
    assert cli._run_items(lambda _: blas_threads(), range(4), jobs, 512) == [2] * 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_items_restores_blas_threads_when_an_item_raises(blas_threads, jobs):
    def item(i):
        if i == 1:
            raise RuntimeError("item failed")
        return blas_threads()

    with pytest.raises(RuntimeError, match="item failed"):
        cli._run_items(item, range(3), jobs, 256)
    assert blas_threads() == 2


@pytest.mark.parametrize(
    "command, model, geometry, dim",
    [
        ("certify", TFI_MODEL, {"a": [1], "b": [2, 3], "c": [1, 2]}, 2**6),
        ("scan-decay", TFI_MODEL, {"a": [1], "b": [3, 2], "c": [1]}, 2**5),
        (
            "certify",
            {"family": "random", "params": {"local_dim": 3}, "sites": 3, "seed": 0},
            {"a": [1], "b": [1], "c": [1]},
            3**3,
        ),
    ],
)
def test_run_items_is_given_the_largest_matrix_side(
    tmp_path, monkeypatch, command, model, geometry, dim
):
    seen = []
    run_items = cli._run_items
    monkeypatch.setattr(cli, "_run_items", lambda *a: seen.append(a[3]) or run_items(*a))
    path = _write(tmp_path, "c.json", {"model": model, "geometry": geometry})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) in (0, 1)
    assert seen == [dim]


def test_commands_call_pmap_with_fn_items_jobs(tmp_path, monkeypatch):
    # bench/worker.py and bench/tracer.py replace `cli._pmap` by wrappers that
    # take exactly these three arguments
    calls = []
    pmap = cli._pmap

    def wrapper(fn, items, jobs):
        calls.append(jobs)
        return pmap(fn, items, jobs)

    monkeypatch.setattr(cli, "_pmap", wrapper)
    corpus = {"min_sites": 4, "max_sites": 4}
    path = _write(tmp_path, "c.json", {"instances": 2, "jobs": 2, "corpus": corpus})
    assert main(["verify-lemmas", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert calls == [2]


def _csv_records(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_certify_ppt_exact_uses_local_dim(tmp_path):
    # qutrits on 1|2|1 give a 3 x 3 edge cut, beyond where PPT is exact
    model = {"family": "random", "params": {"local_dim": 3}, "sites": 4, "seed": 0}
    path = _write(
        tmp_path, "c.json", {"model": model, "geometry": {"a": [1], "b": [2], "c": [1]}}
    )
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    (row,) = _csv_records(tmp_path / "certify_summary.csv")
    assert row["ppt_exact"] == "0"


def test_certify_point_diagonalizes_each_matrix_once(tmp_path, monkeypatch):
    model = {"family": "random", "params": {"range": 2, "strength": 1.5}, "sites": 6, "seed": 1}
    path = _write(
        tmp_path, "c.json", {"model": model, "geometry": {"a": [1], "b": [4], "c": [1]}}
    )
    inputs = record_eigh(monkeypatch)
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    (row,) = _csv_records(tmp_path / "certify_summary.csv")
    assert row["verdict"] != "SkippedSmallB"  # certify ran on this point
    # the point's mutual information and factorization norm were read too
    assert all(math.isfinite(float(row[k])) for k in ("mutual_information", "factorization_op_norm"))
    h_abc = hamiltonian(ModelSpec.from_dict(model).build(), range(6)).matrix
    assert len(inputs) == len(set(inputs))
    assert inputs.count(matrix_digest(h_abc)) == 1


def test_certify_point_solves_the_partial_transpose_once(tmp_path, monkeypatch):
    """The point's negativity column and certify_marginal's cross-check share
    one solve of rho_AC's partial transpose."""
    model = {"family": "random", "params": {"range": 2}, "sites": 6, "seed": 0}
    path = _write(
        tmp_path, "c.json", {"model": model, "geometry": {"a": [1], "b": [4], "c": [1]}}
    )
    regions = RegionsABC.from_sizes(1, 4, 1)

    def partial_transpose_digest(_):  # on the BLAS threads the command gives its point
        rho_ac = Chain(ModelSpec.from_dict(model).build()).marginal(regions.all_sites, regions.ac)
        return matrix_digest(partial_transpose(rho_ac, regions.c).matrix)

    (digest,) = cli._run_items(partial_transpose_digest, [None], 1, 2**6)
    inputs = record_solver(monkeypatch, "eigvalsh")
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    (row,) = _csv_records(tmp_path / "certify_summary.csv")
    assert row["verdict"] != "SkippedSmallB"  # certify ran on this point
    assert inputs.count(digest) == 1


def test_certify_scan_columns_are_the_librarys_numbers(tmp_path):
    """Each scan column of certify_summary.csv is the library's number on a
    fresh Chain of the point, to the last bit, and the negativity is the
    JSON's cross-check."""
    config = CONFIGS / "tfi_certify.json"
    assert main(["certify", "--config", str(config), "--out", str(tmp_path)]) == 0
    cfg = load_config(str(config))
    spec = ModelSpec.from_dict(cfg["model"])
    header = (tmp_path / "certify_summary.csv").read_text().splitlines()
    model_id = hashlib.sha256(spec.canonical_json().encode()).hexdigest()[:12]
    assert f"# model_id={model_id}" in header
    rows = _csv_records(tmp_path / "certify_summary.csv")
    assert len(rows) == 4

    def library(row):
        na, nb, nc = (int(row[k]) for k in ("n_a", "n_b", "n_c"))
        ia = replace(spec, sites=na + nb + nc).build()
        regions = RegionsABC.from_sizes(na, nb, nc)

        def fresh():
            return Chain(ia, cfg["budget"])

        neg = negativity(fresh().marginal(regions.all_sites, regions.ac), (regions.a, regions.c))
        return {
            "negativity": neg.negativity,
            "min_pt_eig": neg.min_pt_eig,
            "mutual_information": mutual_information(fresh(), regions),
            "factorization_op_norm": factorization_error(fresh(), regions).op_norm_err,
        }

    # on the BLAS threads the command gives its points, which move the last bits
    dim = 2 ** max(int(r["n_a"]) + int(r["n_b"]) + int(r["n_c"]) for r in rows)
    for row, want in zip(rows, cli._run_items(library, rows, 1, dim)):
        assert {k: row[k] for k in want} == {k: "%.17g" % v for k, v in want.items()}
        point = "certify_a{n_a}_b{n_b}_c{n_c}.json".format(**row)
        report = json.loads((tmp_path / point).read_text())
        assert row["negativity"] == "%.17g" % report["negativity_cross_check"]


def test_a_skipped_point_carries_the_scan_columns(tmp_path):
    """A gap below the interaction range gets no certificate, but its row
    carries the point's negativity and mutual information."""
    model = {"family": "random", "params": {"range": 2}, "sites": 5, "seed": 0}
    path = _write(
        tmp_path, "c.json", {"model": model, "geometry": {"a": [1], "b": [1, 3], "c": [1]}}
    )
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
    skipped, certified = _csv_records(tmp_path / "certify_summary.csv")
    assert (skipped["n_b"], skipped["verdict"], skipped["k0"]) == ("1", "SkippedSmallB", "-1")
    assert skipped["reconstruction_rel_err"] == "nan"
    for key in ("negativity", "min_pt_eig", "mutual_information", "factorization_op_norm"):
        assert math.isfinite(float(skipped[key])), key
    assert certified["verdict"] != "SkippedSmallB"
    assert not (tmp_path / "certify_a1_b1_c1.json").exists()
    assert (tmp_path / "certify_a1_b3_c1.json").exists()
