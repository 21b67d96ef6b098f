"""Pinned report digests: the bytes of the benchmark ops, the CLI reports
and the demo outputs, beside each one's verdict and max ratio.

`golden_digests.json` holds one entry per output: its SHA-256 and the
numbers a reader checks first (a scan's verdict and max ratio, a
quasinorm bound).  Float results can differ in their last bits between
numpy builds and between the SIMD paths numpy dispatches on, so the file
is keyed by the numpy version and the CPU features numpy has enabled.
On that key every digest must match; on any other key the byte check is
skipped (and says so), and the numbers are compared to 1e-12 relative.

A change that moves bytes on purpose regenerates the file and names the
moved entries:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sobolev_pointwise import GridSpec, parse_field, quasinorm_upper
from sobolev_pointwise.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"

# the benchmark workloads whose op fingerprints are pinned, at this seed
OP_WORKLOADS = ("scan3d", "pairs_dense")
OP_SEED = 1

CLI_REPORTS = {
    "verify main 2-D": "verify --scan main --m 2 --field sin:w=3,2 --dim 2 --grid=-1:1:81",
    "verify main 3-D": "verify --scan main --m 2 --field gauss:a=1 --dim 3 --grid=-1:1:21",
    "verify lemma1 3-D": "verify --field gauss:a=1 --dim 3 --grid=-1:1:21 --pairs 500",
    "verify node-discard": "verify --scan node-discard --m 2 --field sin:w=2 --grid=-1:1:161",
    "verify hatl": "verify --scan hatl --m 2 --s 1.5 --field sin:w=2 --grid=-1:1:161",
    "verify holed domain": "verify --scan main --field poly:x0*x1 --dim 2 --grid=-1:1:81 "
                           "--domain hole=-0.2,-0.2:0.2,0.2",
    "verify --delta": "verify --scan main --m 2 --field sin:w=3,2 --dim 2 --grid=-1:1:81 "
                      "--delta 0.4",
    "verify lemma1 --delta": "verify --field sin:w=3 --delta 0.5",
    "verify hatl --delta": "verify --scan hatl --m 2 --s 1.5 --field sin:w=2 --grid=-1:1:161 "
                           "--delta 0.4",
    "verify --delta --boundary clip": "verify --scan main --m 2 --field gauss:a=1 --dim 3 "
                                      "--grid=-1:1:21 --pairs 500 --delta 0.45 "
                                      "--boundary clip",
    "mollify 2-D": "mollify --field sin:w=3,2 --dim 2 --grid=-1:1:81 --pairs 500",
    "triebel": "triebel --field sin:w=2 --grid=-1:1:161 --m 2 --pairs 500",
    "identities": "identities --draws 50",
}

QUASINORM_EXPONENTS = (0.75, 1.0, 2.0, math.inf)

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def host_key() -> dict:
    """The numpy version and the CPU features numpy has enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__,
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _entry(text: str, **numbers) -> dict:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), **numbers}


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _op_entries() -> dict:
    workloads = _workloads()
    out = {}
    for name in OP_WORKLOADS:
        for i, op in enumerate(workloads.make_inputs(name, OP_SEED)):
            report = op.run()
            out[f"{name} op {i:02d}"] = _entry(op.fingerprint(report),
                                               verdict=_verdict(report.passed),
                                               max_ratio=report.max_ratio)
    return out


def _max_ratios(node):
    if isinstance(node, dict):
        if "max_ratio" in node:
            yield node["max_ratio"]
        for value in node.values():
            yield from _max_ratios(value)
    elif isinstance(node, list):
        for value in node:
            yield from _max_ratios(value)


def _cli_entries(tmp: Path) -> dict:
    out = {}
    for name, args in CLI_REPORTS.items():
        path = tmp / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*shlex.split(args), "--out", str(path)])
        if code not in (0, 1):
            raise RuntimeError(f"{args!r} exited {code}")
        text = path.read_text()
        ratios = list(_max_ratios(json.loads(text)))
        numbers = {"max_ratio": max(ratios)} if ratios else {}
        out["cli " + name] = _entry(text, verdict=_verdict(code == 0), **numbers)
    return out


def _quasinorm_entries() -> dict:
    field = parse_field("sin:w=3,2", dim=2)
    grid = GridSpec.cube(-1.0, 1.0, 81, 2)
    out = {}
    for p in QUASINORM_EXPONENTS:
        bound = quasinorm_upper(field, 2, p, grid)
        out[f"quasinorm_upper p={p:g}"] = _entry(repr(bound), bound=bound)
    return out


def _demo_runs(tmp: Path) -> dict:
    """Each demo run once in a clean interpreter with TMPDIR at `tmp`, so
    the temporary directory the command-line demo writes its report to
    reads as <tmp> in its stdout.  Maps a demo's stem to its exit code,
    stdout and stderr."""
    runs = {}
    for path in DEMOS:
        proc = subprocess.run([sys.executable, str(path)], env={**os.environ, "TMPDIR": str(tmp)},
                              capture_output=True, text=True, timeout=300)
        text = re.sub(re.escape(str(tmp)) + r"/[^/\s]+", "<tmp>", proc.stdout)
        runs[path.stem] = proc.returncode, text, proc.stderr
    return runs


def _demo_entries(runs: dict) -> dict:
    """Each demo's stdout.  A demo that exits non-zero or prints nothing
    raises, on any host key."""
    out = {}
    for stem, (code, stdout, stderr) in runs.items():
        if code != 0 or not stdout.strip():
            raise RuntimeError(f"demo {stem} exited {code}: {stderr[-2000:]}")
        out["demo " + stem] = _entry(stdout)
    return out


def compute(demo_runs: dict | None = None) -> dict:
    """Every pinned entry; the demos are run here unless `demo_runs` (from
    `_demo_runs`) is given."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = _demo_runs(Path(tmp)) if demo_runs is None else demo_runs
        return {**_op_entries(), **_cli_entries(Path(tmp)), **_quasinorm_entries(),
                **_demo_entries(runs)}


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    return _demo_runs(tmp_path_factory.mktemp("demos"))


@pytest.fixture(scope="module")
def current(demo_runs):
    return compute(demo_runs)


def test_all_demos_are_covered():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("stem", [path.stem for path in DEMOS])
def test_demo_runs(demo_runs, stem):
    code, stdout, stderr = demo_runs[stem]
    assert code == 0, stderr[-2000:]
    assert stdout.strip()


def test_the_same_entries_are_pinned(pinned, current):
    assert sorted(current) == sorted(pinned["entries"])


def test_digests_match_on_the_pinned_key(pinned, current):
    if host_key() != pinned["key"]:
        pytest.skip("byte check did not run: numpy version or CPU features differ from "
                    "the pinned key; verdicts and max ratios are still compared")
    moved = [name for name, entry in pinned["entries"].items()
             if current.get(name, {}).get("sha256") != entry["sha256"]]
    assert not moved, f"bytes moved: {moved}"


def test_verdicts_and_max_ratios_match(pinned, current):
    moved = [name for name, entry in pinned["entries"].items() if name in current
             for key, value in entry.items()
             if key != "sha256" and not _close(current[name].get(key), value)]
    assert not moved, f"verdict or number moved: {moved}"


def update() -> None:
    """Rewrite the pinned file on this host and print the entries that moved."""
    old = json.loads(GOLDEN.read_text())["entries"] if GOLDEN.exists() else {}
    entries = compute()
    GOLDEN.write_text(json.dumps({"key": host_key(), "entries": entries},
                                 indent=1, sort_keys=True) + "\n")
    for name, entry in entries.items():
        if old.get(name) != entry:
            print("moved" if name in old else "new", name)
    for name in sorted(set(old) - set(entries)):
        print("gone", name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    update()
