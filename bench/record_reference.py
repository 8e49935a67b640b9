"""Record the sudden-death-tfi reference values from the current code.

Each entry is one (coupling, field) pair; the benchmark seed picks entry
``seed % len(entries)``, and entry 0 is the default tfi model (1.0, 1.0).
For each pair the script runs the full scan (|B| = 1..9) and stores the
negativity and mutual information per gap size.  Rerun it only when a
change is meant to alter these values, and say so in the change.

Usage, from the repository root:
    PYTHONPATH=src python3 bench/record_reference.py
"""
import json

import numpy as np

import chainsep
import worker

ENTRIES = 8


def main() -> None:
    rng = np.random.default_rng(2026)
    pairs = [(1.0, 1.0)] + [
        tuple(round(float(v), 3) for v in rng.uniform(0.5, 1.5, size=2))
        for _ in range(ENTRIES - 1)
    ]
    entries = []
    for coupling, field in pairs:
        params = {"coupling": coupling, "field": field}
        points = worker.sd_points(chainsep, params, "full")
        values = [v for _, _, v, _ in worker.sd_scan(chainsep, points)]
        params["negativity"] = [v[0] for v in values]
        params["mutual_information"] = [v[1] for v in values]
        entries.append(params)
        print(json.dumps(params), flush=True)
    payload = {"recorded_with": f"chainsep {chainsep.__version__}", "entries": entries}
    worker.SD_REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
