"""The scripts under scripts/ and README's Python examples, run as a user
would, from the repository root, the readers of every exported name, and the
commands, files and sections README names."""
import ast
import json
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


def test_every_export_is_used_outside_the_tests():
    """Each name chainsep's __init__ exports is read by another module of the
    package, a script, the benchmark or a README example: a name only the
    tests read does not belong in the library.  A read is a loaded name or an
    attribute; imports and the name's own def or class are not reads."""
    init = ast.parse((ROOT / "src" / "chainsep" / "__init__.py").read_text())
    exports = [a.name for node in init.body if isinstance(node, ast.ImportFrom)
               for a in node.names]
    sources = [p.read_text() for d in ("src/chainsep", "scripts", "bench")
               for p in sorted((ROOT / d).glob("*.py")) if p.name != "__init__.py"]
    sources += re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    read = set()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert len(exports) > 40
    assert [name for name in exports if name not in read] == []


def test_readme_names_only_what_exists():
    """Every backticked hyphenated command in README is a CLI command or a
    benchmark workload, every file README names exists, and every
    README "<Section>" pointer in the package names a ## heading."""
    from chainsep import cli

    readme = (ROOT / "README.md").read_text()
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    commands = set(re.findall(r"`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`", readme))
    assert commands and sorted(commands - set(cli._COMMANDS) - workloads) == []
    paths = set(re.findall(r"\bBENCH_\d+\.json|\b(?:configs|scripts|tests|bench)/[\w./-]*\w", readme))
    assert paths and sorted(p for p in paths if not (ROOT / p).exists()) == []
    headings = set(re.findall(r"^## (.+)$", readme, re.M))
    pointers = {s for p in (ROOT / "src" / "chainsep").glob("*.py")
                for s in re.findall(r'README "([^"]+)"', p.read_text())}
    assert pointers and sorted(pointers - headings) == []
