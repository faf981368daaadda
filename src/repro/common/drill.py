"""One harness for the ``python -m ... selftest`` fault drills.

``repro.exec``, ``repro.serve``, ``repro.cluster`` and
``repro.store.remote`` each ship a ``selftest`` subcommand: run a small
matrix locally as the baseline, then re-run it under one injected
failure per scenario and check every answer bit-identical to the
baseline.  A driver keeps only its scenarios and its ``CHECKS`` list of
``(name, check)`` pairs; :func:`main` owns the command line (``--only``,
``--help-scenarios``, usage errors), the baseline, the timed pass/fail
loop and the summary line.  The shared two-cell :data:`MATRIX` and the
daemon fleet helper (:class:`Daemon`, :func:`free_port`) live here too.

Exits 0 when every selected scenario passes, 1 when one fails, and 2
on a usage error (no ``selftest`` subcommand, unknown scenario).
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.exec.faults import FAULTS_ENV
from repro.serve.client import ServeClient
from repro.serve.protocol import MatrixQuery

__all__ = [
    "Check", "Daemon", "MATRIX", "N_CELLS", "assert_identical",
    "cell_count", "free_port", "main", "matrix_query",
]

#: The drill matrix: two cells, so fault plans can target one of them
#: ("ev8", by key substring) while the other ("stream") proves that
#: unaffected work survives.
MATRIX: Dict[str, Any] = dict(
    benchmarks=("gzip",),
    widths=(8,),
    archs=("stream", "ev8"),
    layouts=(True,),
    instructions=3000,
    warmup=1000,
    scale=0.3,
)

Check = Tuple[str, Callable[[Any], None]]


def cell_count(matrix: Dict[str, Any]) -> int:
    """Cells in a ``run_matrix`` keyword set's cross product."""
    count = 1
    for axis in ("benchmarks", "widths", "archs", "layouts"):
        count *= len(matrix[axis])
    return count


N_CELLS = cell_count(MATRIX)


def main(argv: Sequence[str], prog: str, checks: Sequence[Check],
         description: str = "",
         matrix: Dict[str, Any] = MATRIX) -> int:
    """``python -m PROG selftest [--only NAME] [--help-scenarios]``.

    ``argv`` starts at the subcommand.  Each check is called with the
    local baseline (``run_matrix(**matrix)``) and passes unless it
    raises.
    """
    if not argv or argv[0] != "selftest":
        print(f"usage: python -m {prog} selftest [--only NAME] "
              f"[--help-scenarios]", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog=f"python -m {prog} selftest",
        description=description.splitlines()[0] if description else None,
    )
    parser.add_argument("--only", metavar="NAME",
                        help="run a single scenario (see --help-scenarios)")
    parser.add_argument("--help-scenarios", action="store_true",
                        help="list the scenarios and exit")
    args = parser.parse_args(list(argv[1:]))
    if args.help_scenarios:
        for name, _ in checks:
            print(name)
        return 0
    if args.only:
        checks = [(n, fn) for n, fn in checks if n == args.only]
        if not checks:
            print(f"selftest: unknown scenario {args.only!r}",
                  file=sys.stderr)
            return 2

    from repro.experiments.runner import run_matrix

    print(f"selftest: local baseline matrix ({matrix['instructions']} "
          f"instructions x {cell_count(matrix)} cells)...", flush=True)
    base = run_matrix(**matrix)

    failed = 0
    for name, check in checks:
        print(f"selftest: {name}...", end=" ", flush=True)
        started = time.monotonic()
        try:
            check(base)
        except Exception as exc:
            failed += 1
            print(f"FAIL ({type(exc).__name__}: {exc})")
        else:
            print(f"ok ({time.monotonic() - started:.1f}s)")
    if failed:
        print(f"selftest: {failed} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"selftest: {len(checks)} scenario(s) passed; every run "
          f"bit-identical to the local baseline")
    return 0


def assert_identical(out: Any, base: Any) -> None:
    assert out.results == base.results, \
        "results differ from the local baseline run_matrix"


def matrix_query(**overrides: Any) -> MatrixQuery:
    """The drill matrix as one multi-cell serve ``matrix`` query."""
    return MatrixQuery(**dict(MATRIX, **overrides))


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an OS-assigned port and release it immediately.

    A fault plan that partitions *one node* needs to name that node's
    ``host:port`` before its daemon boots, which an ephemeral
    ``--port 0`` cannot provide.  The release-then-rebind race is
    theoretical here (nothing else binds localhost ports between the
    two calls).
    """
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro.serve`` daemon subprocess with ready-line port
    discovery.

    ``port=0`` (the default) binds an ephemeral port, discovered from
    the ready line; a fixed ``port`` (see :func:`free_port`) lets the
    caller know the daemon's address in advance, as per-node fault
    plans need.
    """

    def __init__(self, store: Optional[str], *extra: str,
                 faults: Optional[str] = None, port: int = 0) -> None:
        env = dict(os.environ)
        env.pop(FAULTS_ENV, None)
        env.pop("REPRO_STORE", None)  # hermetic: --store or nothing
        env.pop("REPRO_STORE_PEERS", None)  # peers come via extra argv
        if faults is not None:
            env[FAULTS_ENV] = faults
        # The subprocess must import repro however the parent did
        # (examples insert src/ into sys.path, not PYTHONPATH).
        import repro

        src_root = os.path.dirname(
            os.path.abspath(list(repro.__path__)[0]))
        path = env.get("PYTHONPATH", "")
        if src_root not in path.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + path if path else "")
            )
        cmd = [sys.executable, "-m", "repro.serve",
               "--host", "127.0.0.1", "--port", str(port)]
        if store is not None:
            cmd += ["--store", store]
        cmd += list(extra)
        # Own process group: a SIGKILL must take the pool workers down
        # with the daemon, or their inherited connection FDs keep the
        # "dead" node's sockets established.
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        prefix = "repro-serve: listening on "
        if not line.startswith(prefix):
            self.proc.kill()
            raise AssertionError(f"daemon did not come up: {line!r}")
        host, _, port_text = line[len(prefix):].strip().rpartition(":")
        self.client = ServeClient(host, int(port_text))
        # Drain the remaining stdout on a reaper thread so a chatty
        # daemon can never block on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    @property
    def address(self) -> str:
        return f"{self.client.host}:{self.client.port}"

    def sweep(self, **overrides: Any) -> Any:
        """The drill matrix run through this daemon as a one-node
        cluster (``run_matrix(cluster=...)``).

        Fails unless the daemon answered every cell: a drill must not
        pass on a silent local fallback.
        """
        from repro.cluster.pool import ClusterPool
        from repro.experiments.runner import run_matrix

        pool = ClusterPool([self.address])
        out = run_matrix(cluster=pool, **dict(MATRIX, **overrides))
        assert not pool.degraded_local, \
            f"daemon at {self.address} did not take the run"
        return out

    def kill(self) -> None:
        self._kill_group()
        self.proc.wait(timeout=60)

    def drain_and_wait(self, timeout: float = 300.0) -> int:
        self.client.drain()
        return self.proc.wait(timeout=timeout)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            self.proc.kill()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.proc.poll() is None:
            self._kill_group()
            self.proc.wait(timeout=60)
