"""Per-cell fault policy for the job pools.

A :class:`FaultPolicy` describes how a pool treats one failing job:
how long an attempt may run, how many times it is retried, how the
retry delay grows, and when the pool itself gives up on parallel
execution.  The policy is deliberately *deterministic*: the backoff
jitter is derived from the job key and attempt number, not from a
clock or a global RNG, so a replayed sweep schedules its retries
identically — the same property that makes the simulation results
themselves bit-identical across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FaultPolicy:
    """How a pool responds to a failing or unresponsive job.

    ``timeout``
        Wall-clock seconds one *attempt* may run.  In the forked pool
        an over-deadline worker is SIGKILLed and the cell re-dispatched
        (counted against its retry budget).  The serial pool enforces
        it with ``SIGALRM`` when running on the main thread of a
        platform that has it, and cannot preempt otherwise.  ``None``
        disables the deadline.
    ``retries``
        How many times a failed attempt is re-tried, so a cell runs at
        most ``retries + 1`` times.  Crashes, timeouts and exceptions
        all consume the same budget.
    ``backoff`` / ``backoff_factor`` / ``backoff_max`` / ``jitter``
        Retry ``k`` (1-based) sleeps ``backoff * factor**(k-1)``
        seconds, stretched by up to ``jitter`` (a fraction) of
        deterministic per-(key, attempt) jitter and capped at
        ``backoff_max``.  ``backoff=0`` disables the delay entirely.
    ``max_rebuilds``
        How many worker crashes the forked pool absorbs by rebuilding
        the lost worker.  One more and the pool degrades to running the
        remaining cells serially in the parent (with a single warning)
        — a host that keeps OOM-killing workers gets a slow sweep, not
        a dead one.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 8.0
    jitter: float = 0.25
    max_rebuilds: int = 3


def backoff_delay(policy: FaultPolicy, key: object, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of ``key``.

    Exponential in the attempt number with deterministic jitter hashed
    from ``(key, attempt)`` — two runs of the same sweep back off
    identically, and two cells failing together do not retry in
    lockstep.
    """
    if policy.backoff <= 0 or attempt <= 0:
        return 0.0
    base = policy.backoff * (policy.backoff_factor ** (attempt - 1))
    digest = hashlib.sha256(f"{key!r}|{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return min(policy.backoff_max, base * (1.0 + policy.jitter * fraction))


class SweepError(RuntimeError):
    """One or more cells of a sweep failed after exhausting the policy.

    Raised only after every job has settled, so everything that *did*
    complete has already been delivered through the pool's ``completed``
    callback (and, in ``run_matrix``, persisted to the artifact store
    and journal) — a re-run resumes from there instead of starting
    over.

    ``failures`` maps each failed job key to the list of per-attempt
    error summaries; ``completed`` counts the jobs that succeeded.
    """

    def __init__(self, failures: dict, completed: int = 0) -> None:
        self.failures = dict(failures)
        self.completed = completed
        names = sorted(str(key) for key in self.failures)
        shown = ", ".join(names[:8])
        if len(names) > 8:
            shown += f", ... ({len(names) - 8} more)"
        last = ""
        if names:
            first_key = next(
                key for key in self.failures if str(key) == names[0]
            )
            messages = self.failures[first_key]
            if messages:
                last = f"; first failure: {messages[-1]}"
        super().__init__(
            f"{len(names)} cell(s) failed after exhausting the fault "
            f"policy ({completed} completed): {shown}{last}"
        )
