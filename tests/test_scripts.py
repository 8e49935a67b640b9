"""The scripts under scripts/ and README's Python examples, run as a user
would, from the repository root."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def _run(script, *args):
    return _python(str(ROOT / "scripts" / script), *args)


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
    # seven summary lines, the core line, and no per-radius rows, as
    # max(|A|, |C|) = 1 leaves no tail terms
    assert len(lines) == 8
    assert not [l for l in lines if l.lstrip().startswith("k=")]
    # tfi 1|5|1 certifies at k0 = 1: exit 0, and the core's ball passes
    proc = _run("certification_report.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "verdict: SeparableByConstruction" in lines[2]
    assert len(lines) == 8 and lines[-1].startswith("core: ") and lines[-1].endswith("-> ok")


def test_readme_python_examples_run():
    """README's ```python blocks, run in order in one interpreter: each block
    may use the names of the ones before it."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) >= 2
    proc = _python("-W", "error::RuntimeWarning", "-c", "\n".join(blocks))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "SeparableByConstruction"  # as the comment says
