"""End-to-end observability: bit-identity, sweep recorders, serve.

The layer's core contract — observability is a window, never an input
— is asserted here across every execution path: serial, pooled and
served.  The flight recorder's acceptance case (a
SIGKILLed worker surfaces as typed events next to the sweep journal)
rides the same fault harness as the resilience tests.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.exec import FaultPolicy, FaultSpec
from repro.exec.faults import active_plan
from repro.experiments.runner import run_matrix
from repro.store.store import ArtifactStore

KW = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=3000,
    warmup=1000,
    scale=0.3,
)
FAST = FaultPolicy(retries=2, backoff=0.0)


@pytest.fixture(scope="module")
def baseline():
    return run_matrix(**KW)


def _events_file(root: str) -> str:
    runs = os.path.join(root, "runs")
    (path,) = [
        os.path.join(runs, name)
        for name in sorted(os.listdir(runs))
        if name.endswith(".events")
    ]
    return path


# ----------------------------------------------------------------------
# bit-identity: recording on/off, every execution path
# ----------------------------------------------------------------------
def test_store_run_bit_identical_with_obs_disabled(
    tmp_path, baseline, monkeypatch
):
    recorded = run_matrix(**KW, store=str(tmp_path / "on"))
    assert recorded.results == baseline.results
    assert os.path.exists(_events_file(str(tmp_path / "on")))

    monkeypatch.setenv(obs.OBS_ENV, "0")
    silent = run_matrix(**KW, store=str(tmp_path / "off"))
    assert silent.results == baseline.results
    # Disabled means no recorder file at all, not an empty one.
    runs = os.path.join(str(tmp_path / "off"), "runs")
    assert not [n for n in os.listdir(runs) if n.endswith(".events")]


def test_pooled_run_bit_identical_and_recorded(tmp_path, baseline):
    root = str(tmp_path / "store")
    got = run_matrix(**KW, jobs=2, store=root, fault_policy=FAST)
    assert got.results == baseline.results
    events = obs.read_events(_events_file(root))
    kinds = {e["ev"] for e in events}
    assert {"sweep_begin", "sweep_end"} <= kinds
    # Worker cell events crossed the fork boundary into the same file.
    cells = [e for e in events if e["ev"] == "cell"]
    assert len(cells) == len(KW["archs"])
    for cell in cells:
        assert cell["instructions"] > 0
        assert cell["wall"] > 0


def test_interp_run_bit_identical_with_recorder(tmp_path, baseline):
    recorder = obs.sweep_recorder(str(tmp_path / "interp.events"))
    try:
        got = run_matrix(**KW)
    finally:
        obs.detach(recorder)
    assert got.results == baseline.results
    cells = [e for e in recorder.events() if e["ev"] == "cell"]
    assert {c["engine"] for c in cells} == set(KW["archs"])


def test_sweep_recorder_events_and_metrics(tmp_path, baseline):
    root = str(tmp_path / "store")
    before = obs.CORE_CELLS.total()
    got = run_matrix(**KW, store=root)
    assert got.results == baseline.results
    assert obs.CORE_CELLS.total() - before == len(KW["archs"])

    events = obs.read_events(_events_file(root))
    assert events[0]["ev"] == "sweep_begin"
    assert events[0]["cells"] == len(KW["archs"])
    assert events[-1]["ev"] == "sweep_end"
    assert events[-1]["completed"] == len(KW["archs"])

    # A warm rerun attaches a fresh recorder on the same file and logs
    # an all-cached sweep (no cell events this time).
    again = run_matrix(**KW, store=root)
    assert again.results == baseline.results
    events = obs.read_events(_events_file(root))
    begins = [e for e in events if e["ev"] == "sweep_begin"]
    assert len(begins) == 2
    assert begins[-1]["cached"] == len(KW["archs"])


# ----------------------------------------------------------------------
# faults: the SIGKILL acceptance case
# ----------------------------------------------------------------------
@pytest.mark.faults(timeout=300)
def test_killed_worker_surfaces_in_flight_recorder(tmp_path, baseline):
    root = str(tmp_path / "store")
    with active_plan(FaultSpec("kill", match="ev8", times=1)):
        got = run_matrix(**KW, jobs=2, store=root, fault_policy=FAST)
    assert got.results == baseline.results
    events = obs.read_events(_events_file(root))
    kinds = {e["ev"] for e in events}
    assert "worker_crash" in kinds
    assert "retry" in kinds
    (crash,) = [e for e in events if e["ev"] == "worker_crash"]
    assert crash["exitcode"] == -9
    retries = [e for e in events if e["ev"] == "retry"]
    assert any("ev8" in str(e["cell"]) for e in retries)


# ----------------------------------------------------------------------
# gc: recorder files ride with their journal
# ----------------------------------------------------------------------
def test_gc_collects_events_with_their_journal(tmp_path):
    root = str(tmp_path / "store")
    run_matrix(**KW, store=root)
    store = ArtifactStore(root)
    stats = store.stats()
    assert stats["journals"] == 1
    assert stats["journals_complete"] == 1
    assert stats["journal_oldest_seconds"] >= 0.0
    assert os.path.exists(_events_file(root))

    report = store.gc(journal_max_age=0.0, dry_run=True)
    assert report["journals_removed"] == 1
    assert report["events_removed"] == 1
    assert os.path.exists(_events_file(root))  # dry run deletes nothing

    report = store.gc(journal_max_age=0.0)
    assert report["events_removed"] == 1
    runs = os.path.join(root, "runs")
    assert not [n for n in os.listdir(runs) if n.endswith(".events")]
