"""
Driving the scans from the command line
=======================================

Everything in the library is reachable through the `sobolev-pointwise`
executable (or `python -m sobolev_pointwise`).  This script shells out
to the installed entry point the way a batch pipeline would, then reads
the JSON report back.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

MODULE = [sys.executable, "-m", "sobolev_pointwise"]


def run(*args):
    proc = subprocess.run(MODULE + list(args), capture_output=True, text=True)
    print(f"$ sobolev-pointwise {' '.join(args)}")
    print(proc.stdout, end="")
    return proc


# The identity suite is the fastest smoke test: several hundred random
# draws through every exact identity, nonzero exit on any failure.

run("identities", "--draws", "100")

# Scans are configured by flags; a JSON config file (--config) can hold
# defaults for one command's own options, with explicit flags taking
# precedence.  Reports land in JSON (aggregates plus violating pairs) or
# CSV (every pair).

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "scan.json"
    run("verify", "--scan", "main", "--m", "2", "--field", "sin:w=2.5",
        "--grid", "-1:1:201", "--pairs", "1000", "--seed", "9",
        "--out", str(out))
    report = json.loads(out.read_text())
print("report aggregates:", {k: report[k]
                             for k in ("n_pairs", "n_violations", "max_ratio")})

# Exit codes separate outcomes for pipelines: 0 clean, 1 violations or
# failed identities, 2 bad configuration, 3 nothing feasible to scan.

proc = run("triebel", "--field", "sin:w=2", "--grid", "-1:1:161",
           "--m", "2", "--pairs", "200", "--seed", "2", "--g", "zero")
print("zero-coefficient control exit code:", proc.returncode)
