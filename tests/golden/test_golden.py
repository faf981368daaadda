"""Absolute pin: the golden matrix still simulates to ``golden.json``.

A failure means simulated results changed.  If the change is meant to
alter the model, regenerate with ``make_golden.py`` and name the model
change in CHANGES.md; otherwise the change broke bit-identity.
"""

import json

import pytest

import make_golden


@pytest.fixture(scope="module")
def golden():
    with open(make_golden.GOLDEN) as fh:
        return json.load(fh)["cells"]


@pytest.fixture(scope="module")
def current():
    return make_golden.compute()


def test_golden_matrix_covers_every_cell(golden):
    assert len(golden) == 2 * 2 * 2 * 4


def test_results_match_golden(golden, current):
    assert sorted(current) == sorted(golden)
    changed = {key: (golden[key], current[key]) for key in golden
               if current[key] != golden[key]}
    assert not changed, f"{len(changed)} cells moved: {changed}"
