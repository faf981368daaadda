"""``python -m repro.cluster selftest`` — end-to-end fleet failure drills.

Each scenario boots real ``repro.serve`` daemon subprocesses (via the
fleet helper in :mod:`repro.common.drill`), drives a sweep through
:class:`~repro.cluster.pool.ClusterPool` / ``run_matrix(cluster=...)``
while injecting a failure, and asserts the results **bit-identical**
to a local baseline:

* ``kill-mid-sweep`` — one of two daemons is SIGKILLed while holding a
  cell; the cell redispatches to the survivor, cells already cached in
  the client's store are never re-simulated, and the remote results
  ingest byte-for-byte into the client store.
* ``partition-heal`` — injected ``net_drop`` faults partition one node
  (its requests die mid-frame) until its breaker opens; the sweep
  finishes on the survivor, a heartbeat ping heals the partitioned
  node through probation, and a second sweep uses it again.
* ``all-down`` — every address refuses connections; the pool walks its
  probe rounds, then degrades (warn-once) to the local pool and still
  completes bit-identically.
* ``slow-node-redispatch`` — a node hangs on its cell past the fault
  policy's deadline; the daemon answers a typed deadline partial and
  the cell is redispatched to a different node.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from typing import Any, List

from repro.common import drill
from repro.common.drill import Daemon, assert_identical, free_port
from repro.exec.faults import FaultSpec, active_plan, encode_plan
from repro.exec.policy import FaultPolicy
from repro.experiments.runner import run_matrix
from repro.store.cache import ArtifactCache

from .health import DEAD, HEALTHY, PROBATION, HealthPolicy
from .pool import ClusterPool

#: The drill matrix at two widths: four cells, so redispatch has
#: somewhere to go while other work runs; the ``ev8`` cells are the
#: fault targets (their job keys and wire frames contain the arch name).
MATRIX = dict(drill.MATRIX, widths=(4, 8))
N_CELLS = drill.cell_count(MATRIX)

#: Fast-failing policies so scenarios run in seconds: no retry backoff,
#: a two-strike breaker, sub-second probe backoff.
FAST = FaultPolicy(timeout=None, retries=2, backoff=0.0)
FAST_HEALTH = HealthPolicy(
    suspect_after=1, dead_after=2,
    probe_backoff=0.25, probe_backoff_max=2.0,
)


def _run_local(**overrides: Any):
    return run_matrix(**dict(MATRIX, **overrides))


def _by_address(pool: ClusterPool) -> dict:
    return {node.address: node for node in pool.nodes}


def _check_kill_mid_sweep(base) -> None:
    """SIGKILL one of two daemons mid-sweep: in-flight cells
    redispatch to the survivor; store hits are never sent anywhere;
    remote results ingest into the client store byte-for-byte."""
    hang = encode_plan(FaultSpec("hang", match="", times=16, seconds=90))
    with tempfile.TemporaryDirectory() as client_root, \
            tempfile.TemporaryDirectory() as victim_root, \
            tempfile.TemporaryDirectory() as survivor_root:
        # Pre-warm one cell locally: the cluster run must treat it as
        # a store hit and dispatch only the three genuine misses.
        warm = dict(MATRIX)
        warm.update(widths=(4,), archs=("stream",))
        _run_local(store=client_root, **{k: warm[k]
                                         for k in ("widths", "archs")})
        with Daemon(victim_root, faults=hang) as victim, \
                Daemon(survivor_root) as survivor:
            pool = ClusterPool(
                [victim.address, survivor.address],
                policy=FAST, health_policy=FAST_HEALTH, node_slots=1,
            )
            # The victim hangs every cell it is handed; killing it
            # mid-sweep turns that hang into a connection reset.
            killer = threading.Timer(2.5, victim.kill)
            killer.start()
            try:
                out = run_matrix(cluster=pool, store=client_root,
                                 **MATRIX)
            finally:
                killer.cancel()
            assert_identical(out, base)
            nodes = _by_address(pool)
            assert not pool.degraded_local
            assert pool.redispatches >= 1, \
                "the killed daemon's cell was never redispatched"
            assert nodes[victim.address].completed == 0
            assert nodes[survivor.address].completed == N_CELLS - 1
            # Only the genuine misses went remote.
            assert len(pool.sources) == N_CELLS - 1, pool.sources
        # The ingested wire bytes must decode as plain store hits.
        arts = ArtifactCache(client_root)
        again = _run_local(store=arts)
        assert_identical(again, base)
        assert arts.hits["result"] == N_CELLS, arts.hits


def _check_partition_heal(base) -> None:
    """Partition one node mid-frame until its breaker opens; the sweep
    survives on the peer, a heartbeat heals the node via probation,
    and the next sweep dispatches to it again."""
    port_a = free_port()
    address_a = f"127.0.0.1:{port_a}"
    with tempfile.TemporaryDirectory() as root:
        with Daemon(root, port=port_a) as node_a, \
                Daemon(root) as node_b:
            pool = ClusterPool(
                [node_a.address, node_b.address],
                policy=FAST, health_policy=FAST_HEALTH, node_slots=1,
            )
            # Client-side injection: the first two frames routed at
            # node A die halfway (the daemon never sees a full line,
            # the client sees a reset) — a partition, not a crash.
            with active_plan(
                FaultSpec("net_drop", match=address_a, times=2)
            ):
                out = run_matrix(cluster=pool, **MATRIX)
            assert_identical(out, base)
            nodes = _by_address(pool)
            assert not pool.degraded_local
            assert nodes[address_a].breaker_trips >= 1, \
                "the partitioned node never tripped its breaker"
            # Partition over: one heartbeat must walk A back in.
            states = pool.heartbeat()
            assert states[address_a] in (PROBATION, HEALTHY), states
            # And the healed node takes work again (the daemons share
            # a store, so this round is warm).
            out2 = run_matrix(cluster=pool, **MATRIX)
            assert_identical(out2, base)
            assert nodes[address_a].completed >= 1, \
                "the healed node was never dispatched to again"
            assert node_b.drain_and_wait() == 0


def _check_all_down(base) -> None:
    """Every node down: the pool probes, gives up, degrades warn-once
    to the local pool, and the sweep still completes bit-identically."""
    addresses = [f"127.0.0.1:{free_port()}",
                 f"127.0.0.1:{free_port()}"]
    pool = ClusterPool(
        addresses, policy=FAST, health_policy=FAST_HEALTH,
        connect_timeout=1.0,
    )
    out = run_matrix(cluster=pool, **MATRIX)
    assert_identical(out, base)
    assert pool.degraded_local, \
        "an unreachable fleet did not degrade to the local pool"
    assert all(node.state == DEAD for node in pool.nodes)
    assert all(node.completed == 0 for node in pool.nodes)


def _check_slow_node(base) -> None:
    """A node that hangs past the policy deadline answers a typed
    deadline partial; the cell redispatches to a different node."""
    slow = dict(MATRIX)
    slow.update(archs=("ev8",))  # two cells, both strikeable
    local = _run_local(archs=("ev8",))
    hang = encode_plan(FaultSpec("hang", match="ev8", times=8,
                                 seconds=45))
    with tempfile.TemporaryDirectory() as root_a, \
            tempfile.TemporaryDirectory() as root_b:
        with Daemon(root_a, faults=hang) as slow_node, \
                Daemon(root_b) as fast_node:
            pool = ClusterPool(
                [slow_node.address, fast_node.address],
                policy=FaultPolicy(timeout=10, retries=2, backoff=0.0),
                health_policy=FAST_HEALTH, node_slots=1,
            )
            out = run_matrix(cluster=pool, **slow)
            assert_identical(out, local)
            nodes = _by_address(pool)
            assert not pool.degraded_local
            # The slow node answered (deadline partial), so it is
            # healthy — but everything real was finished elsewhere.
            assert nodes[slow_node.address].completed == 0
            assert nodes[fast_node.address].completed == 2
            slow_node.kill()  # its worker is still hanging; no drain


CHECKS: List[drill.Check] = [
    ("all-down", _check_all_down),
    ("kill-mid-sweep", _check_kill_mid_sweep),
    ("partition-heal", _check_partition_heal),
    ("slow-node-redispatch", _check_slow_node),
]


def main(argv: List[str]) -> int:
    return drill.main(argv, "repro.cluster", CHECKS, description=__doc__,
                      matrix=MATRIX)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
