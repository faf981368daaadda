"""Unit tests for the fault-tolerant job pools (repro.exec.pool)."""

from __future__ import annotations

import operator
import time
import warnings

import pytest

from repro.exec import (
    FaultPolicy,
    FaultSpec,
    ForkServerPool,
    Job,
    SerialPool,
    SweepError,
    backoff_delay,
)
from repro.exec.faults import active_plan

FAST = FaultPolicy(retries=2, backoff=0.0)


def _local_result() -> object:
    return lambda: None  # unpicklable on purpose


# ----------------------------------------------------------------------
# policy / backoff
# ----------------------------------------------------------------------
def test_backoff_delay_deterministic_and_capped():
    policy = FaultPolicy(backoff=0.5, backoff_factor=2.0, backoff_max=3.0,
                         jitter=0.25)
    first = backoff_delay(policy, "cell-a", 1)
    assert first == backoff_delay(policy, "cell-a", 1)
    assert 0.5 <= first <= 0.5 * 1.25
    # Jitter differs across keys and attempts, deterministically.
    assert first != backoff_delay(policy, "cell-b", 1)
    assert backoff_delay(policy, "cell-a", 10) == 3.0
    assert backoff_delay(policy, "cell-a", 0) == 0.0
    assert backoff_delay(FaultPolicy(backoff=0.0), "cell-a", 3) == 0.0


def test_sweep_error_names_cells_and_counts():
    failures = {f"cell-{i}": [f"attempt 0: boom {i}"] for i in range(10)}
    err = SweepError(failures, completed=7)
    assert err.completed == 7
    assert err.failures == failures
    text = str(err)
    assert "10 cell(s) failed" in text
    assert "(7 completed)" in text
    assert "cell-0" in text and "... (2 more)" in text
    assert "boom 0" in text


# ----------------------------------------------------------------------
# serial pool
# ----------------------------------------------------------------------
def test_serial_pool_runs_in_order():
    order = []
    pool = SerialPool()
    results = pool.run(
        operator.add,
        [Job(i, (i, 100)) for i in range(5)],
        completed=lambda job, res: order.append(job.key),
    )
    assert results == {i: i + 100 for i in range(5)}
    assert order == list(range(5))


def test_serial_pool_retries_transient_exception():
    settled = {}
    with active_plan(FaultSpec("exc", match="flaky", times=2)):
        results = SerialPool(policy=FAST).run(
            operator.add,
            [Job("flaky-1", (1, 1)), Job("solid-2", (2, 2))],
            completed=lambda job, res: settled.update({job.key: job}),
        )
    assert results == {"flaky-1": 2, "solid-2": 4}
    assert settled["flaky-1"].attempt == 2
    assert len(settled["flaky-1"].failures) == 2
    assert "TransientFault" in settled["flaky-1"].failures[0]
    assert settled["solid-2"].failures == []


def test_serial_pool_raises_sweep_error_after_all_jobs_settle():
    with active_plan(FaultSpec("exc", match="flaky", times=10)):
        with pytest.raises(SweepError) as excinfo:
            SerialPool(policy=FaultPolicy(retries=1, backoff=0.0)).run(
                operator.add,
                [Job("flaky-1", (1, 1)), Job("solid-2", (2, 2))],
            )
    err = excinfo.value
    assert set(err.failures) == {"flaky-1"}
    assert len(err.failures["flaky-1"]) == 2  # 1 try + 1 retry
    assert err.completed == 1  # solid-2 still ran
    assert "flaky-1" in str(err)


@pytest.mark.faults(timeout=60)
def test_serial_pool_attempt_timeout_preempts_hang():
    policy = FaultPolicy(timeout=0.3, retries=1, backoff=0.0)
    started = time.monotonic()
    with active_plan(FaultSpec("hang", match="stuck", times=1, seconds=30)):
        results = SerialPool(policy=policy).run(
            operator.add, [Job("stuck-1", (3, 4))]
        )
    assert results == {"stuck-1": 7}
    assert time.monotonic() - started < 20  # preempted, not slept out


# ----------------------------------------------------------------------
# forked pool
# ----------------------------------------------------------------------
def test_fork_pool_matches_serial_results():
    jobs = [Job(i, (i, 3)) for i in range(6)]
    serial = SerialPool().run(operator.mul, [Job(i, (i, 3)) for i in range(6)])
    order = []
    with ForkServerPool(2) as pool:
        forked = pool.run(operator.mul, jobs,
                          completed=lambda job, res: order.append(job.key))
    assert forked == serial
    assert sorted(order) == list(range(6))


def test_fork_pool_validates_max_workers():
    with pytest.raises(ValueError):
        ForkServerPool(0)


def test_fork_pool_rejects_runs_after_close():
    pool = ForkServerPool(1)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.run(operator.add, [Job("k", (1, 2))])


@pytest.mark.faults(timeout=120)
def test_fork_pool_rebuilds_after_worker_crash():
    jobs = [Job("victim", (10, 1))] + [Job(f"ok-{i}", (i, 1))
                                       for i in range(3)]
    with active_plan(FaultSpec("kill", match="victim", times=1)):
        with ForkServerPool(2, policy=FAST) as pool:
            results = pool.run(operator.add, jobs)
    assert results["victim"] == 11
    assert all(results[f"ok-{i}"] == i + 1 for i in range(3))
    assert pool.rebuilds == 1
    assert not pool.degraded


@pytest.mark.faults(timeout=120)
def test_fork_pool_kills_over_deadline_worker_and_retries():
    policy = FaultPolicy(timeout=1.0, retries=1, backoff=0.0)
    started = time.monotonic()
    with active_plan(FaultSpec("hang", match="stuck", times=1, seconds=60)):
        with ForkServerPool(2, policy=policy) as pool:
            results = pool.run(operator.add,
                               [Job("stuck", (5, 5)), Job("fine", (1, 1))])
    assert results == {"stuck": 10, "fine": 2}
    assert pool.timeouts == 1
    # A deliberate deadline kill is not a crash: no degradation pressure.
    assert pool.rebuilds == 0
    assert time.monotonic() - started < 45


@pytest.mark.faults(timeout=120)
def test_fork_pool_degrades_to_serial_after_rebuild_budget():
    # times=1 so the re-run of the victim (attempt 1) in the degraded
    # parent does not re-inject the SIGKILL there.
    policy = FaultPolicy(retries=2, backoff=0.0, max_rebuilds=0)
    jobs = [Job("victim", (10, 2))] + [Job(f"ok-{i}", (i, 2))
                                       for i in range(3)]
    with active_plan(FaultSpec("kill", match="victim", times=1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ForkServerPool(2, policy=policy) as pool:
                results = pool.run(operator.add, jobs)
    assert pool.degraded
    assert results["victim"] == 12
    assert all(results[f"ok-{i}"] == i + 2 for i in range(3))
    degraded = [w for w in caught if "serially" in str(w.message)]
    assert len(degraded) == 1


def test_fork_pool_unpicklable_result_is_a_job_failure_not_a_crash():
    with ForkServerPool(1, policy=FaultPolicy(retries=0)) as pool:
        with pytest.raises(SweepError) as excinfo:
            pool.run(_local_result, [Job("weird")])
    assert "not transmittable" in str(excinfo.value)
    # The worker survived the failed send: no rebuild happened.
    assert pool.rebuilds == 0


# ----------------------------------------------------------------------
# shutdown hardening (the serve daemon closes pools from several paths)
# ----------------------------------------------------------------------
def test_fork_pool_close_is_idempotent_and_mixes_with_terminate():
    pool = ForkServerPool(2)
    pool.run(operator.add, [Job(i, (i, 1)) for i in range(4)])
    assert pool.alive_workers > 0
    pool.close()
    assert pool.closed
    assert pool.alive_workers == 0
    # Every further teardown path is a no-op, in any order.
    pool.close()
    pool.terminate()
    pool.close()
    assert pool.closed and pool.alive_workers == 0


def test_fork_pool_terminate_then_close():
    pool = ForkServerPool(2)
    pool.run(operator.add, [Job(i, (i, 1)) for i in range(4)])
    procs = [w.proc for w in pool._workers]
    pool.terminate()
    pool.terminate()
    pool.close()
    assert pool.closed
    assert all(not proc.is_alive() for proc in procs)


def test_fork_pool_concurrent_close_from_two_threads():
    import threading as _threading

    pool = ForkServerPool(2)
    pool.run(operator.add, [Job(i, (i, 1)) for i in range(4)])
    errors = []

    def teardown(fn):
        try:
            fn()
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [
        _threading.Thread(target=teardown, args=(pool.close,)),
        _threading.Thread(target=teardown, args=(pool.terminate,)),
        _threading.Thread(target=teardown, args=(pool.close,)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert pool.closed and pool.alive_workers == 0


def test_fork_pool_reusable_across_runs():
    # The serve daemon keeps one resident pool across many sweeps.
    with ForkServerPool(2) as pool:
        first = pool.run(operator.add, [Job(i, (i, 1)) for i in range(3)])
        pids_before = {w.proc.pid for w in pool._workers}
        second = pool.run(operator.mul, [Job(i, (i, 2)) for i in range(3)])
        pids_after = {w.proc.pid for w in pool._workers}
    assert first == {i: i + 1 for i in range(3)}
    assert second == {i: i * 2 for i in range(3)}
    # Workers stayed resident between runs (no respawn).
    assert pids_before == pids_after and pids_before


# ----------------------------------------------------------------------
# serial deadlines off the main thread (daemon scheduler threads)
# ----------------------------------------------------------------------
def test_serial_deadline_off_main_thread_degrades_with_one_warning():
    import threading as _threading

    from repro.common import reset_warn_once

    policy = FaultPolicy(timeout=30.0, retries=0, backoff=0.0)
    outcomes = {}

    def drive(tag):
        outcomes[tag] = SerialPool(policy=policy).run(
            operator.add, [Job(f"{tag}-job", (1, 2))]
        )

    reset_warn_once("exec.deadline-thread")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for tag in ("first", "second"):
                thread = _threading.Thread(target=drive, args=(tag,))
                thread.start()
                thread.join(timeout=60)
    finally:
        reset_warn_once("exec.deadline-thread")
    # Both runs completed (no ValueError from signal.signal), results
    # intact, and exactly one warn-once across both threads.
    assert outcomes == {"first": {"first-job": 3}, "second": {"second-job": 3}}
    relevant = [w for w in caught if "main thread" in str(w.message)]
    assert len(relevant) == 1
    assert issubclass(relevant[0].category, RuntimeWarning)
