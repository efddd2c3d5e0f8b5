"""The mutant catalogue (`mutants.py`) still points at the code and the
tests: every snippet occurs once in its module, and every named test
is defined.  Running the mutants is a separate CI step."""

import os

import pytest

from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_matches_once_and_its_test_exists(mutant):
    assert source(mutant).count(mutant.snippet) == 1
    path, name = mutant.test.split("::")
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        assert f"\ndef {name}(" in f.read()
