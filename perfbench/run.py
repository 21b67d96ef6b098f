"""Scan benchmark of sobolev-pointwise.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan3d --seed 1 --seconds 30 --trace 0

One op is one call of `main_inequality_scan` for the scan workloads,
and one battery of exact identities over the public functions of the
`differences` layer for `differences` (see workloads.py).
The run is single-process and closed-loop: an op starts when the
previous one returns.

The work of a run is fixed: each workload has a fixed number of ops,
and the run makes `workloads.PASSES` passes over them, so two commits
time the same op runs however fast the code is.  The work was sized to
take about `--seconds` on a 2-vCPU Xeon; `--seconds` is recorded with
the result but does not change the work.  Every pass checks every
output, and each op's outputs must be equal byte for byte across passes.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, taken over
every op run of every pass.  `--trace 1` installs `tracer.Tracer` on
the odd passes only, so untraced and traced passes alternate, prints
the per-layer metrics as means per traced op, and writes the spans to
perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
whenever that line is printed, and nonzero when the run cannot start,
for instance without the package sources under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes timed for `setup_s`; the median damps the spread of a
# single import.
SETUP_PROBES = 5
# `op_s_tail` is the slowest op run with at least this many op runs beyond it.
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _setup_probe(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up probe failed with exit code {done.returncode}")
    return float(done.stdout.strip().splitlines()[-1])


class Checked:
    """Runs ops, checks their outputs, and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.differs: list[int] = []
        self._fingerprints: dict[int, str] = {}

    def run(self, index: int, op) -> float:
        """Run op `index` once and return its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            elapsed = time.perf_counter() - start
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            reason = op.check(output)
        if reason is not None:
            self.failed += 1
            print(f"op {index} failed: {reason}", file=sys.stderr)
            return elapsed
        fingerprint = op.fingerprint(output)
        if self._fingerprints.setdefault(index, fingerprint) != fingerprint:
            self.differs.append(index)
            print(f"op {index}: output differs between passes", file=sys.stderr)
        return elapsed

    def run_all(self, ops) -> list[float]:
        return [self.run(i, op) for i, op in enumerate(ops)]


def _end_to_end(setup_s: float, times: list[float], checked: Checked) -> dict:
    times = sorted(times)
    n = len(times)
    tail_index = n - 1 - TAIL_BEYOND
    print(f"op_s_tail: op run {tail_index + 1} of {n} in ascending order "
          f"(p{100.0 * tail_index / (n - 1):.0f}, {TAIL_BEYOND} op runs beyond it)")
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(times),
        "op_s_tail": times[tail_index],
        "ops_per_s": n / sum(times),
        "ok_frac": (checked.attempted - checked.failed) / checked.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, untraced: list[float], traced: list[float]) -> dict:
    self_time, root_total, root_self = tracer.summary()
    traced_ops = len(traced)
    values = {f"{name}.self_s": self_time.get(name, 0.0) / traced_ops
              for name in tracer.names}
    values.update({key: count / traced_ops for key, count in tracer.counts.items()})
    draw = "verify.PairSampler.draw"
    attempts = tracer.counts.get(draw + ".attempts", 0)
    values[draw + ".acceptance"] = (
        tracer.counts[draw + ".accepted"] / attempts if attempts else 0.0)
    values["trace.ops"] = traced_ops
    values["trace.op_s"] = root_total / traced_ops
    values["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(untraced) - 1.0
    values["trace.unattributed_frac"] = root_self / root_total
    return values


def _layer_default(name: str, tracer) -> float:
    """Zero for a metric of a traced layer that this workload never calls."""
    layer = name.rsplit(".", 1)[0]
    if layer not in tracer.names:
        raise KeyError(f"per-layer metric {name} names no traced layer")
    return 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # cap native thread pools before numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (ROOT / "src" / "sobolev_pointwise" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if not args.trace:
        setup_s = statistics.median(
            _setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES))

    import numpy
    import scipy

    import workloads
    from tracer import Tracer

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": nproc, "thread_cap": nproc,
           "cpu_model": _cpu_model(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    print("env " + json.dumps(env))

    ops = workloads.make_inputs(args.workload, args.seed)
    checked = Checked()

    if args.trace:
        tracer = Tracer()
        untraced, traced = [], []
        # untraced and traced passes alternate, so both see the same mix
        # of quiet and busy seconds on the machine
        for k in range(workloads.PASSES):
            if k % 2:
                with tracer.installed(workloads.install_layers):
                    traced += checked.run_all(ops)
            else:
                untraced += checked.run_all(ops)
        values = _per_layer(tracer, untraced, traced)
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", env)
        wanted = spec["per_layer"]
        values = {m["name"]: values[m["name"]] if m["name"] in values
                  else _layer_default(m["name"], tracer) for m in wanted}
    else:
        times = [t for _ in range(workloads.PASSES) for t in checked.run_all(ops)]
        print(f"{len(ops)} ops, {workloads.PASSES} passes")
        values = _end_to_end(setup_s, times, checked)
        wanted = spec["end_to_end"]

    correct = checked.failed == 0 and not checked.differs
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<48} {value:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": checked.attempted,
                      "failed": checked.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
