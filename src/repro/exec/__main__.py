"""``python -m repro.exec selftest`` — prove the fault ladder end to end.

Runs one tiny experiment matrix fault-free, then re-runs it under each
injected fault class (worker SIGKILL, hang + deadline, transient
exceptions, store I/O errors, SIGKILL inside a store write) and checks
every run returns bit-identical results.  A smoke test for the whole
resilience stack on the machine at hand — cheap enough for CI, honest
enough to catch a platform where SIGALRM or pipe semantics differ.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import tempfile
import warnings
from typing import List

from repro.common import drill
from repro.common.drill import MATRIX
from repro.exec.faults import FAULTS_ENV, FaultSpec, active_plan, encode_plan
from repro.exec.policy import FaultPolicy
from repro.experiments.runner import run_matrix

FAST = FaultPolicy(retries=2, backoff=0.0)


def _check_worker_kill(base) -> None:
    with active_plan(FaultSpec("kill", match="ev8", times=1)):
        got = run_matrix(**MATRIX, jobs=2, fault_policy=FAST)
    assert got.results == base.results, "results differ after worker kill"


def _check_hang(base) -> None:
    policy = FaultPolicy(timeout=20.0, retries=2, backoff=0.0)
    with active_plan(FaultSpec("hang", match="ev8", times=1, seconds=120)):
        got = run_matrix(**MATRIX, jobs=2, fault_policy=policy)
    assert got.results == base.results, "results differ after hang"


def _check_transient_exc(base) -> None:
    with active_plan(FaultSpec("exc", match="ev8", times=2)):
        got = run_matrix(**MATRIX, fault_policy=FAST)
    assert got.results == base.results, "results differ after exceptions"


def _check_store_errors(base) -> None:
    with tempfile.TemporaryDirectory() as root:
        with active_plan(FaultSpec("store_err", match="result", times=2)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = run_matrix(**MATRIX, store=root, fault_policy=FAST)
        assert got.results == base.results, \
            "results differ under store I/O errors"


def _store_kill_child(root: str) -> None:
    """Child body: run the matrix serially and die inside a store write."""
    os.environ[FAULTS_ENV] = encode_plan(
        FaultSpec("store_kill", match="result", times=1)
    )
    from repro.exec import faults

    faults.refresh()
    run_matrix(**MATRIX, store=root, fault_policy=FaultPolicy(retries=0))


def _check_store_kill(base) -> None:
    ctx = multiprocessing.get_context()
    with tempfile.TemporaryDirectory() as root:
        child = ctx.Process(target=_store_kill_child, args=(root,))
        child.start()
        child.join(timeout=300)
        assert child.exitcode == -9, (
            f"expected the child SIGKILLed mid-write, got exit "
            f"{child.exitcode}"
        )
        # The torn write must degrade to a clean miss: the resumed run
        # re-simulates it and still matches bit for bit.
        got = run_matrix(**MATRIX, store=root, resume=True)
        assert got.results == base.results, \
            "results differ after SIGKILL inside a store write"


CHECKS: List[drill.Check] = [
    ("worker-kill", _check_worker_kill),
    ("hang-deadline", _check_hang),
    ("transient-exception", _check_transient_exc),
    ("store-io-error", _check_store_errors),
    ("store-write-kill", _check_store_kill),
]


def main(argv: List[str]) -> int:
    return drill.main(argv, "repro.exec", CHECKS, description=__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
