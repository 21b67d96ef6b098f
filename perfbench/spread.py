"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py                 # every workload, seeds 1..10
    python3 perfbench/spread.py --seeds 1       # one run per workload

Every workload of BENCHMARK.json runs untraced once per seed 1..N.
Runs are sequential, one process at a time.  For every workload it
prints each metric by name and unit with its median, its quartiles (as
`statistics.quantiles(values, n=4)` gives them) and its spread, the
distance between the quartiles as a share of the median.  End-to-end
metrics also show their bound from BENCHMARK.json; a spread above a
third of the bound is flagged.  The raw results are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload:<12} seed {seed:<4} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"({elapsed:.1f} s)", flush=True)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [_run(w, s, spec["run_seconds"]) for s in seeds]
               for w in workloads}
    out = HERE / "out" / f"spread-s{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(r['attempted'] for r in runs)} ops, "
              f"{sum(r['failed'] for r in runs)} failed, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<48} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            bound_text = "" if bound is None else f"{bound:g}"
            print(f"  {name:<48} {entry['unit']:<9} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {bound_text:>6}{flag}")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
