"""Tests of tools/mutants.py on canned files and exit codes; no mutant's tests are run here."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mutants  # noqa: E402


def test_a_text_found_once_is_replaced(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    assert mutants.apply(tmp_path, mutants.Mutant("a.py", "y = 2", "y = 3", "note"))
    assert (tmp_path / "a.py").read_text() == "x = 1\ny = 3\n"


@pytest.mark.parametrize("source", ["x = 1\n", "y = 2\ny = 2\n", None])  # absent, twice, no file
def test_a_text_not_found_exactly_once_is_stale(tmp_path, source):
    if source is not None:
        (tmp_path / "a.py").write_text(source)
    assert not mutants.apply(tmp_path, mutants.Mutant("a.py", "y = 2", "y = 3", "note"))
    assert source is None or (tmp_path / "a.py").read_text() == source
    assert mutants.classify(False, None) == "stale"


@pytest.mark.parametrize("returncode, outcome", [(0, "survived"), (1, "killed"), (2, "killed")])
def test_pytest_exit_codes_classify(returncode, outcome):
    assert mutants.classify(True, returncode) == outcome


@pytest.mark.parametrize("returncode", [3, 4, 5])
def test_a_run_that_tested_nothing_stops_the_command(returncode):
    with pytest.raises(SystemExit):
        mutants.classify(True, returncode)


def test_the_score_counts_stale_entries():
    assert mutants.score(["killed", "killed", "survived", "stale"]) == "score: 2/4 killed (50%), 1 survived, 1 stale"


def test_every_entry_applies_to_the_source_once():
    root = HERE.parent
    assert len(mutants.MUTANTS) >= 12
    for mutant in mutants.MUTANTS:
        assert (root / mutant.path).read_text().count(mutant.text) == 1, mutant.note
        assert mutant.replacement != mutant.text and mutant.note
