"""``python -m repro.serve`` — run or selftest the experiment daemon.

Serve mode binds the daemon and prints one ready line
(``repro-serve: listening on HOST:PORT``) so wrappers started with
``--port 0`` can discover the ephemeral port.  SIGTERM and SIGINT both
drain: admission stops, queued cells finish into the store and their
journals, then the process exits 0.

``python -m repro.serve selftest`` boots real daemon subprocesses and
proves the service claims end to end: request coalescing (N concurrent
identical cold requests, one simulation per cell), worker crashes and
hangs degrading per the fault ladder without corrupting responses,
store I/O errors costing only caching, client deadlines yielding
partial results, SIGKILL + restart re-simulating only missing cells,
and drain exiting cleanly — all against injected ``$REPRO_FAULTS``
plans, all checked bit-identical against a local ``run_matrix``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
from typing import Any, List

from repro.exec.faults import FaultSpec, encode_plan
from repro.exec.policy import FaultPolicy
from repro.serve.client import ServeOverloaded
from repro.serve.server import ExperimentServer


def serve(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived experiment daemon over the artifact store.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 binds an ephemeral port)")
    parser.add_argument("--store", metavar="DIR",
                        default=os.environ.get("REPRO_STORE"),
                        help="artifact store root (default: $REPRO_STORE; "
                             "omit to serve without persistence)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for cold cells")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="max owned cold cells admitted at once")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt wall-clock deadline (seconds)")
    parser.add_argument("--retries", type=int, default=2,
                        help="per-cell retry budget")
    parser.add_argument("--store-peers", metavar="HOST:PORT[,...]",
                        default=os.environ.get("REPRO_STORE_PEERS"),
                        help="federated store peers to read through to "
                             "and replicate into (default: "
                             "$REPRO_STORE_PEERS; needs --store)")
    args = parser.parse_args(argv)

    policy = FaultPolicy(timeout=args.timeout, retries=args.retries)
    server = ExperimentServer(
        host=args.host, port=args.port,
        store_root=args.store or None, max_workers=args.workers,
        queue_limit=args.queue_limit, policy=policy,
        store_peers=(args.store_peers or None) if args.store else None,
    )
    host, port = server.address
    print(f"repro-serve: listening on {host}:{port}", flush=True)
    if args.store:
        print(f"repro-serve: store at {args.store}", flush=True)
        if args.store_peers:
            print(f"repro-serve: store peers {args.store_peers}",
                  flush=True)
    elif args.store_peers:
        print("repro-serve: ignoring --store-peers (no --store)",
              flush=True)

    def _drain_signal(signum: int, frame: Any) -> None:
        print(f"repro-serve: received signal {signum}, draining",
              flush=True)
        server.drain()

    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    server.serve_forever()
    print("repro-serve: drained, exiting", flush=True)
    return 0


# ======================================================================
# selftest
# ======================================================================
def _daemon(*args: Any, **kwargs: Any) -> Any:
    # Imported here, not at module top: daemon boot loads no drill code.
    from repro.common.drill import Daemon

    return Daemon(*args, **kwargs)


def _check_coalesce(base) -> None:
    """N concurrent identical cold requests -> one simulation per cell."""
    from repro.common.drill import N_CELLS, assert_identical

    with tempfile.TemporaryDirectory() as root, _daemon(root) as daemon:
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        outputs: List[Any] = [None] * n_clients

        def request(i: int) -> None:
            barrier.wait()
            outputs[i] = daemon.sweep()

        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for out in outputs:
            assert out is not None, "a concurrent request never finished"
            assert_identical(out, base)
        status = daemon.client.status()
        cells = status["cells"]
        assert cells["computed"] == N_CELLS, (
            f"expected exactly {N_CELLS} simulations for {n_clients} "
            f"concurrent identical requests, daemon ran "
            f"{cells['computed']}"
        )
        assert cells["coalesced"] >= N_CELLS, \
            f"no coalescing happened: {cells}"
        # Warm re-request: served from the store, nothing recomputed.
        assert_identical(daemon.sweep(), base)
        status = daemon.client.status()
        assert status["cells"]["computed"] == N_CELLS
        assert daemon.drain_and_wait() == 0


def _check_worker_kill(base) -> None:
    """A SIGKILLed worker costs a retry, never a wrong response."""
    from repro.common.drill import assert_identical

    plan = encode_plan(FaultSpec("kill", match="ev8", times=1))
    with tempfile.TemporaryDirectory() as root, \
            _daemon(root, "--retries", "2", faults=plan) as daemon:
        assert_identical(daemon.sweep(), base)
        status = daemon.client.status()
        assert status["cells"]["failed"] == 0, status["cells"]
        assert daemon.drain_and_wait() == 0


def _check_hang_deadline(base) -> None:
    """A hung worker is killed at the attempt deadline and retried."""
    from repro.common.drill import assert_identical

    plan = encode_plan(FaultSpec("hang", match="ev8", times=1, seconds=120))
    with tempfile.TemporaryDirectory() as root, \
            _daemon(root, "--timeout", "20", "--retries", "2",
                    faults=plan) as daemon:
        assert_identical(daemon.sweep(), base)
        assert daemon.drain_and_wait() == 0


def _check_store_errors(base) -> None:
    """Store write errors cost caching, never the response."""
    from repro.common.drill import assert_identical

    plan = encode_plan(FaultSpec("store_err", match="result", times=2))
    with tempfile.TemporaryDirectory() as root, \
            _daemon(root, faults=plan) as daemon:
        assert_identical(daemon.sweep(), base)
        assert daemon.drain_and_wait() == 0


def _check_deadline_partial(base) -> None:
    """A request deadline yields typed partial results, not a hang."""
    from repro.common.drill import matrix_query

    # Every attempt of the ev8 cell hangs and there is no attempt
    # timeout, so only the client's deadline can end the wait.  (The
    # hang outlives the deadline by plenty but not forever, so a worker
    # orphaned by the SIGKILL scenarios exits on its own.)
    plan = encode_plan(FaultSpec("hang", match="ev8", times=10,
                                 seconds=60))
    with tempfile.TemporaryDirectory() as root, \
            _daemon(root, faults=plan) as daemon:
        response = daemon.client.matrix(matrix_query(deadline=20.0))
        assert not response["complete"]
        by_arch = {cell["arch"]: cell for cell in response["cells"]}
        assert by_arch["stream"]["status"] == "ok", by_arch["stream"]
        assert by_arch["ev8"]["status"] == "deadline", by_arch["ev8"]
        daemon.kill()  # the hung worker never finishes; no clean drain


def _check_restart_resume(base) -> None:
    """SIGKILL mid-sweep + restart re-simulates only missing cells."""
    from repro.common.drill import assert_identical, matrix_query

    plan = encode_plan(FaultSpec("hang", match="ev8", times=10,
                                 seconds=60))
    with tempfile.TemporaryDirectory() as root:
        with _daemon(root, faults=plan) as daemon:
            response = daemon.client.matrix(matrix_query(deadline=20.0))
            by_arch = {cell["arch"]: cell for cell in response["cells"]}
            assert by_arch["stream"]["status"] == "ok"
            assert by_arch["ev8"]["status"] == "deadline"
            daemon.kill()  # mid-sweep: ev8 still hanging

        # Fault-free restart over the same store: the finished cell
        # must come back from disk, only the lost one re-simulates.
        with _daemon(root) as daemon:
            assert_identical(daemon.sweep(), base)
            status = daemon.client.status()
            assert status["cells"]["computed"] == 1, (
                f"restart re-simulated {status['cells']['computed']} "
                f"cell(s), expected exactly the 1 lost to SIGKILL"
            )
            assert status["store"]["hits"]["result"] >= 1, status["store"]
            assert daemon.drain_and_wait() == 0


def _check_overloaded(base) -> None:
    """Admission control answers with a typed overloaded error."""
    from repro.common.drill import matrix_query

    with tempfile.TemporaryDirectory() as root, \
            _daemon(root, "--queue-limit", "0") as daemon:
        try:
            daemon.client.matrix(matrix_query())
        except ServeOverloaded:
            pass
        else:
            raise AssertionError(
                "queue_limit=0 daemon admitted a cold request"
            )
        # The daemon is refusing work, not broken: ping still answers
        # and drain still exits cleanly.
        assert daemon.client.ping()["ok"]
        assert daemon.drain_and_wait() == 0


def _check_drain(base) -> None:
    """Bare lifecycle: boot, ping, status, drain, clean exit."""
    with _daemon(None) as daemon:  # no store: pure in-memory service
        ping = daemon.client.ping()
        assert ping["ok"] and ping["pid"] == daemon.proc.pid
        status = daemon.client.status()
        assert status["queue"]["backlog"] == 0
        assert not status["draining"]
        assert daemon.drain_and_wait() == 0


CHECKS = [
    ("drain", _check_drain),
    ("coalesce", _check_coalesce),
    ("worker-kill", _check_worker_kill),
    ("hang-deadline", _check_hang_deadline),
    ("store-io-error", _check_store_errors),
    ("deadline-partial", _check_deadline_partial),
    ("restart-resume", _check_restart_resume),
    ("overloaded", _check_overloaded),
]


def main(argv: List[str]) -> int:
    if argv and argv[0] == "selftest":
        from repro.common import drill

        return drill.main(argv, "repro.serve", CHECKS,
                          description=__doc__)
    return serve(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
