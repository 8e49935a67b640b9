"""The scripts under scripts/, run as a user would, from the repository root."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_sudden_death_scan():
    proc = _run("sudden_death_scan.py", "--max-gap", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [l for l in proc.stdout.splitlines() if l.startswith("|B|=")]
    assert len(rows) == 3
    assert "negativity stays below" in proc.stdout.splitlines()[-1]


def test_certification_report():
    # tfi 1|3|1 is too short a gap to certify: the script reports and exits 1
    proc = _run("certification_report.py", "--nb", "3")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "verdict: Undetermined" in lines[2]
    # eight summary lines, the core line, and no per-radius rows, as
    # max(|A|, |C|) = 1 leaves no tail terms
    assert len(lines) == 9
    assert not [l for l in lines if l.lstrip().startswith("k=")]
