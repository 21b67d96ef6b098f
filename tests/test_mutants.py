"""The mutant list of `tests/mutants.py` stays applicable to the package."""

from pathlib import Path

import pytest

import mutants

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_each_mutant_applies_once(name, path, old, new):
    assert old != new
    assert sum(p.read_text().count(old) for p in SRC.rglob("*.py")) == 1
    assert old in (SRC.parent / mutants.PACKAGE / path).read_text()
