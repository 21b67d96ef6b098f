"""One-line mutants of the package, and the harness that runs them.

Each mutant replaces one line of the package: a line whose fault a
check must catch, in the scans' right sides and the rung they read, the
verdict rule, the coefficient ladder, the difference kernels and
binomials, the exact polynomial routes, the grid derivative magnitudes,
the box containment test that guards the grid reads, the float values
of the power and sinusoid kinds, or the checks of a scan's arguments.  For each mutant
the harness copies the repository to a temporary directory, applies the
mutant there, and runs the tier-1 suite on the copy until its first
failure (pytest -x); a mutant under
which every test passes survives.  The test file named for the mutated
module runs first, so a killed mutant usually stops within its own
module's tests, and a survivor takes the whole suite; the harness stays
out of tier-1, and `tests/test_mutants.py` only checks that every
mutant still applies.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 0 2        # the mutants with these indices

It prints one row per mutant, with the first failing test of a killed
one and the run's wall time, and exits 1 if any survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "sobolev_pointwise"

# (name, file under the package, old line text, new line text); each old
# text occurs exactly once under src/
MUTANTS = [
    ("endpoint rhs x 1.5", "verify.py",
     "return lhs, pairs.dist ** s * (a_x + a_y)",
     "return lhs, 1.5 * pairs.dist ** s * (a_x + a_y)"),
    ("endpoint rhs x 1/4", "verify.py",
     "return lhs, pairs.dist ** s * (a_x + a_y)",
     "return lhs, 0.25 * pairs.dist ** s * (a_x + a_y)"),
    ("coefficient read one rung up", "verify.py",
     "rung = _step(ends, pairs.dist)",
     "rung = np.minimum(_step(ends, pairs.dist) + 1, len(ends) - 1)"),
    ("mollified rungs left unconvolved", "verify.py",
     "rung[...] = convolve(SampledField(grid, rung), phi).values",
     "rung[...] = SampledField(grid, rung).values"),
    ("node-discard rhs with |h|^(m-1)", "verify.py",
     "_blockwise(pairs, _all_node_sides, f, order, order, g)",
     "_blockwise(pairs, _all_node_sides, f, order, order - 1, g)"),
    ("hatl rhs x 2", "verify.py",
     "_endpoint_sides, f, order, s, g.values[None], g.grid,",
     "_endpoint_sides, f, order, s, 2 * g.values[None], g.grid,"),
    ("triebel rhs with |h|^(s/2)", "verify.py",
     "_blockwise(pairs, _all_node_sides, f, order, s, g)",
     "_blockwise(pairs, _all_node_sides, f, order, s / 2, g)"),
    ("partial coefficient without its perm", "fields.py",
     "coeff = c.numerator * math.prod(map(math.perm, exps, beta)) / c.denominator",
     "coeff = c.numerator / c.denominator"),
    ("grid sample divided at the wrong scale", "fields.py",
     "den = f._scaled_den(scale)",
     "den = f._scaled_den(scale + 1)"),
    ("box containment always true", "fields.py",
     "return other.dim == self.dim and all(",
     "return True or other.dim == self.dim and all("),
    ("node sum drops its last node", "differences.py",
     "for j, c in enumerate(coeffs):",
     "for j, c in enumerate(coeffs[:-1]):"),
    ("node sum x 2", "differences.py",
     "total += c * value_at(x + j * h)",
     "total += 2 * c * value_at(x + j * h)"),
    ("remainder nodes at (y - x) / (m + 1)", "differences.py",
     "h = (y - x) / order\n    if not h.any(axis=-1).all():",
     "h = (y - x) / (order + 1)\n    if not h.any(axis=-1).all():"),
    ("binomial C(4, 2) off by one", "differences.py",
     "return math.comb(l, j)",
     "return math.comb(l, j) + ((l, j) == (4, 2))"),
    ("C(n) one ulp larger", "maximal.py",
     "return ball_volume(dim, 1.0) / lens_volume(dim, 1.0, 1.0)",
     "return math.nextafter(ball_volume(dim, 1.0) / lens_volume(dim, 1.0, 1.0), math.inf)"),
    ("rung cut r < delta", "maximal.py",
     "r <= d * _RADIUS_SLACK",
     "r < d"),
    ("Hessian norm without its split", "fields.py",
     "return np.maximum(np.abs(lam), np.abs(m) + np.sqrt(t))",
     "return np.maximum(np.abs(lam), np.abs(m))"),
    ("slab columns start one row late", "fields.py",
     "yield slab, [cols[0][slab], *cols[1:]]",
     "yield slab, [np.roll(cols[0], -1)[slab], *cols[1:]]"),
    ("power field's excluded ball never tested", "fields.py",
     "if (r2 < self.exclusion ** 2).any():",
     "if False and (r2 < self.exclusion ** 2).any():"),
    ("sinusoid values at omegas[0] only", "fields.py",
     "out = out * np.sin(w * col)",
     "out = out * np.sin(self.omegas[0] * col)"),
    ("triebel reads g without its grid check", "verify.py",
     "_check_triebel_exponent(s)\n    _check_g(g, sampler)",
     "_check_triebel_exponent(s)"),
    ("scans run on the order as given", "verify.py",
     "return checked, _checked_slack(slack)",
     "return order, _checked_slack(slack)"),
    ("ladder plans found without the spacing", "maximal.py",
     "@lru_cache(maxsize=32)",
     "@lambda build: (lambda plans: lambda shape, spacings, *key: plans.setdefault("
     "(shape, *key), build(shape, spacings, *key)))({})"),
    ("inner-axis flat offsets one row off", "maximal.py",
     "(p, sum((qi + w) * s for qi, w, s in zip(q, wide, strides))))",
     "(p, sum((qi + w + (k == 1)) * s for k, (qi, w, s) in enumerate(zip(q, wide, strides)))))"),
    ("spacing rule at one spacing", "maximal.py",
     "if 2.0 * spacing > deltas[0] * _RADIUS_SLACK:",
     "if spacing > deltas[0] * _RADIUS_SLACK:"),
    ("CLI hatl scan run with s = m", "cli.py",
     "report = hatl_scan(field, order, s, g, sampler, slack=slack)",
     "report = hatl_scan(field, order, float(order), g, sampler, slack=slack)"),
    ("given ladder config not held to max_sep", "verify.py",
     "if config.deltas[-1] < sampler.max_sep * (1.0 - 1e-12):",
     "if False and config.deltas[-1] < sampler.max_sep * (1.0 - 1e-12):"),
    ("verdict fails a ratio equal to 1 + slack", "verify.py",
     "mask = ratio > 1.0 + slack",
     "mask = ratio >= 1.0 + slack"),
    ("verdict slack counted twice", "verify.py",
     "mask = ratio > 1.0 + slack",
     "mask = ratio > 1.0 + 2.0 * slack"),
    ("p90 selection index one high", "verify.py",
     "k = int((len(work) - 1) * q)",
     "k = int((len(work) - 1) * q) + (q == 0.9)"),
    ("cell guard tops out at the top node", "fields.py",
     "guard = np.append(upper[:-1], math.inf)",
     "guard = np.append(upper[:-1], upper[-1])"),
]


def first_failure(name: str, path: str, old: str, new: str) -> str | None:
    """The first failing tier-1 test on a copy of the repository with one
    mutant applied, or None if every test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        target = copy / PACKAGE / path
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"mutant {name!r}: its old text does not occur exactly once")
        target.write_text(text.replace(old, new))
        own = f"tests/test_{Path(path).stem}.py"
        files = [own] + sorted(str(t.relative_to(copy)) for t in (copy / "tests").glob("test_*.py")
                               if t.name not in (Path(own).name, "test_mutants.py"))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *files],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True)
        if run.returncode == 0:
            return None
        for line in run.stdout.splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                return line.split()[1]
        return f"pytest exit code {run.returncode}"


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    print(f"{'#':>2}  {'mutant':<40} verdict   time   first failing test")
    for i in picked:
        name, *edit = MUTANTS[i]
        start = time.perf_counter()
        failed = first_failure(name, *edit)
        survivors += failed is None
        print(f"{i:>2}  {name:<40} {'killed' if failed else 'SURVIVED':<9} "
              f"{time.perf_counter() - start:5.1f}s {failed or '-'}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
