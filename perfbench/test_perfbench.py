"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q

None of these simulates anything: they pin the self-time arithmetic,
that a perturbed output counts as failed, the seed's contract, and that
BENCHMARK.json is the manifest ``run.py --manifest`` prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "attrs": {}}


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([(0, 10), (2, 3), (4, 5)]) == 10


def test_self_time_subtracts_children_once():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),   # a grandchild is not the root's child
        _span(4, 1, 3.5, 6.0),   # overlaps span 2 by 0.5
        _span(5, None, 20.0, 21.0),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.5)
    assert own[5] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent():
    own = spans.self_times([_span(1, None, 0.0, 1.0),
                            _span(2, 1, 0.5, 1.5)])
    assert own[1] == pytest.approx(0.5)


def test_recorded_spans_nest_and_carry_the_cell():
    spans.reset("cli")
    with spans.span("outer"):
        spans._state["cell"] = "fp1"
        with spans.span("inner"):
            pass
        spans._state["cell"] = None
    inner, outer = spans._spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["attrs"] == {"cell": "fp1"} and outer["attrs"] == {}
    spans.reset("cli")


_LINES = [
    "gzip       ev8     8-wide opt   IPC= 1.52  fetchIPC= 3.10  "
    "mispred= 4.00%  cycles=1234",
    "gzip       stream  8-wide opt   IPC= 1.61  fetchIPC= 3.90  "
    "mispred= 3.50%  cycles=1180",
]
_TEXT = "Figure 9\ngzip 1.52 1.61\n"


def _digests():
    return {"fig9": {
        "cells": {f"gzip/{arch}/8/opt": run.digest(" ".join(line.split()))
                  for arch, line in zip(("ev8", "stream"), _LINES)},
        "text": {"gzip": run.digest(_TEXT)},
    }}


def _stderr(lines):
    return "".join(f"[{i:6d}s] {line}\n" for i, line in enumerate(lines))


def test_exact_output_passes():
    assert run.check_output("fig9", ["gzip"], 0, _TEXT, _stderr(_LINES),
                            _digests()) == (3, 0)


def test_perturbed_cell_counts_as_failed():
    bad = [_LINES[0].replace("cycles=1234", "cycles=1235"), _LINES[1]]
    assert run.check_output("fig9", ["gzip"], 0, _TEXT, _stderr(bad),
                            _digests()) == (3, 1)
    missing = _LINES[:1]
    assert run.check_output("fig9", ["gzip"], 0, _TEXT, _stderr(missing),
                            _digests()) == (3, 1)


def test_perturbed_text_or_exit_counts_as_failed():
    digests = _digests()
    assert run.check_output("fig9", ["gzip"], 0, _TEXT + " ",
                            _stderr(_LINES), digests) == (3, 1)
    assert run.check_output("fig9", ["gzip"], 1, _TEXT, _stderr(_LINES),
                            digests) == (3, 1)


def test_uncommitted_order_is_checked_by_agreement():
    digests = _digests()
    digests["fig9"]["text"].clear()
    assert run.check_output("fig9", ["gzip"], 0, _TEXT, _stderr(_LINES),
                            digests, reference_text=_TEXT) == (3, 0)
    assert run.check_output("fig9", ["gzip"], 0, "other", _stderr(_LINES),
                            digests, reference_text=_TEXT) == (3, 1)


def test_committed_digests_cover_every_input():
    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    for sweep, spec in run.SWEEPS.items():
        cells = digests[sweep]["cells"]
        for seed in range(12):
            for pick in range(6):
                chosen = run.workload_benchmarks(sweep, seed, pick)
                assert ",".join(chosen) in digests[sweep]["text"]
                assert {key.split("/")[0] for key in cells} >= set(chosen)


def test_seed_orders_and_pick_chooses_by_class():
    assert run.workload_benchmarks("fig8", 0) == ["gzip", "gcc", "twolf"]
    assert run.workload_benchmarks("fig9", 0) == ["gzip", "twolf"]
    for seed in range(10):
        order = run.workload_benchmarks("fig8", seed)
        assert order == run.workload_benchmarks("fig8", seed)
        assert sorted(order) == ["gcc", "gzip", "twolf"]
    for pick in range(1, 10):
        chosen = run.pick_benchmarks("fig8", pick)
        assert [run.CLASS_OF[b] for b in chosen] == \
            ["fitting", "intermediate", "churning"]


def test_benchmark_json_is_the_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.manifest()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".perfbench_work").exists()
