"""One-line mutants of the scans' right sides, and the harness that runs them.

Each mutant replaces one line of the package: a line whose fault a
check of the scans must catch.  For each mutant the harness copies the
repository to a temporary directory, applies the mutant there, runs the
tier-1 suite on the copy and counts its failures; a mutant without a
failure survives.  The run takes about half a minute per mutant, so it
stays out of tier-1; `tests/test_mutants.py` only checks that every
mutant still applies.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 0 2        # the mutants with these indices

It prints one row per mutant and exits 1 if any survives.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "sobolev_pointwise"

# (name, file under the package, old line text, new line text); each old
# text occurs exactly once under src/
MUTANTS = [
    ("mollified rungs left unconvolved", "verify.py",
     "rung[...] = convolve(SampledField(grid, rung), phi).values",
     "rung[...] = SampledField(grid, rung).values"),
    ("node-discard rhs with |h|^(m-1)", "verify.py",
     "lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, order, ladder.all_node())",
     "lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, order - 1, ladder.all_node())"),
    ("hatl rhs x 2", "verify.py",
     "return lhs, pairs.dist ** s * (g.at(pairs.x) + g.at(pairs.y))",
     "return lhs, 2 * pairs.dist ** s * (g.at(pairs.x) + g.at(pairs.y))"),
    ("triebel rhs with |h|^(s/2)", "verify.py",
     "lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, s, g)",
     "lhs, rhs = _blockwise(pairs, _all_node_sides, f, order, s / 2, g)"),
]


def failures(name: str, path: str, old: str, new: str) -> int:
    """Tier-1 failures and errors on a copy of the repository with one mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        target = copy / PACKAGE / path
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"mutant {name!r}: its old text does not occur exactly once")
        target.write_text(text.replace(old, new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True)
        summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        return sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    print(f"{'#':>2}  {'mutant':<36} {'failures':>8}  verdict")
    for i in picked:
        name, *edit = MUTANTS[i]
        count = failures(name, *edit)
        survivors += count == 0
        print(f"{i:>2}  {name:<36} {count:>8}  {'killed' if count else 'SURVIVED'}",
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
