"""Per-worker utilization counters on the pools (the uniform surface
the cluster scheduler and ``serve status`` report)."""

from __future__ import annotations

import operator
import os
import time

import pytest

from repro.exec import FaultPolicy, ForkServerPool, Job, SerialPool


def _crash_once(marks: str) -> str:
    """Kill the worker on the first attempt; succeed on the retry."""
    crashed = os.path.join(marks, "crashed")
    if not os.path.exists(crashed):
        open(crashed, "w").close()
        os._exit(11)
    open(os.path.join(marks, "done"), "w").close()
    return "recovered"


def _wait_for_retry(marks: str) -> str:
    """Hold a worker until the crashed job's retry has finished."""
    done = os.path.join(marks, "done")
    deadline = time.monotonic() + 60.0
    while not os.path.exists(done):
        if time.monotonic() > deadline:
            raise TimeoutError("the crashed job was never retried")
        time.sleep(0.01)
    return "held"


def _cell(kind: str, marks: str) -> str:
    if kind == "victim":
        return _crash_once(marks)
    if kind == "hold":
        return _wait_for_retry(marks)
    return kind


def test_serial_pool_counts_dispatches_and_completions():
    pool = SerialPool()
    pool.run(operator.mul, [Job(i, (i, 2)) for i in range(5)])
    assert pool.jobs_dispatched == 5
    assert pool.jobs_completed == 5
    stats = pool.worker_stats()
    assert stats == {"dispatched": 5, "completed": 5, "workers": []}


def test_serial_pool_counts_retries_as_dispatches():
    flaky = {"left": 2}

    def wobbly(n):
        if flaky["left"]:
            flaky["left"] -= 1
            raise RuntimeError("transient")
        return n

    pool = SerialPool(policy=FaultPolicy(retries=3, backoff=0.0))
    pool.run(wobbly, [Job("cell", (7,))])
    assert pool.jobs_dispatched == 3  # two failed attempts + success
    assert pool.jobs_completed == 1


def test_fork_pool_reports_per_worker_slots():
    with ForkServerPool(2) as pool:
        pool.run(operator.mul, [Job(i, (i, 3)) for i in range(6)])
        stats = pool.worker_stats()
    assert stats["dispatched"] == 6
    assert stats["completed"] == 6
    workers = stats["workers"]
    assert [w["slot"] for w in workers] == [0, 1]
    assert sum(w["dispatched"] for w in workers) == 6
    assert sum(w["completed"] for w in workers) == 6
    assert all(set(w) == {"slot", "alive", "busy", "dispatched",
                          "completed"} for w in workers)


@pytest.mark.faults(timeout=120)
def test_fork_pool_worker_counters_survive_rebuilds(tmp_path):
    # The victim (slot 0) crashes on its first attempt while the "hold"
    # job keeps slot 1 busy until the victim's retry has finished, so
    # the retry can only run on a rebuilt worker.  The replacement
    # reuses slot 0; pool totals keep the dead worker's attempt.
    marks = str(tmp_path)
    jobs = [Job("victim", ("victim", marks)), Job("hold", ("hold", marks))]
    jobs += [Job(f"ok-{i}", (f"v{i}", marks)) for i in range(3)]
    with ForkServerPool(2, policy=FaultPolicy(retries=1,
                                              backoff=0.0)) as pool:
        results = pool.run(_cell, jobs)
        stats = pool.worker_stats()
        rebuilds = pool.rebuilds
    assert results == {"victim": "recovered", "hold": "held",
                       "ok-0": "v0", "ok-1": "v1", "ok-2": "v2"}
    assert rebuilds == 1
    assert stats["completed"] == 5
    assert stats["dispatched"] == 6  # the crashed attempt counted too
    workers = stats["workers"]
    assert [w["slot"] for w in workers] == [0, 1]
    # Residents only: the dead worker's attempt lives in the totals.
    assert sum(w["dispatched"] for w in workers) == 5
    assert sum(w["completed"] for w in workers) == 5
