"""Simulation results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(slots=True)
class SimulationResult:
    """Everything a single simulation run measured.

    Raw counters are kept so results can be merged / re-derived; the
    properties expose the three headline metrics of the paper's
    evaluation: IPC (Figs. 8 & 9), fetch IPC and branch misprediction
    rate (Table 3).
    """

    benchmark: str
    engine: str
    width: int
    optimized: bool
    cycles: int
    instructions: int
    # branch accounting (committed, correct path)
    branches: int = 0
    cond_branches: int = 0
    taken_branches: int = 0
    mispredictions: int = 0
    cond_mispredictions: int = 0
    return_mispredictions: int = 0
    indirect_resolutions: int = 0
    # fetch accounting
    fetch_cycles: int = 0
    fetched_instructions: int = 0
    wrong_path_instructions: int = 0
    rob_stall_cycles: int = 0
    idle_cycles: int = 0
    engine_stats: Dict[str, int] = field(default_factory=dict)
    memory_stats: Dict[str, float] = field(default_factory=dict)
    #: Run diagnostics that depend on *how* the simulation executed,
    #: not on what it simulated — e.g. schedule-template chain hit
    #: rates, which vary with shared-cache warmth across processors.
    #: Excluded from equality (``compare=False``) and stripped before a
    #: result is persisted to the artifact store, so fingerprints and
    #: artifacts stay warmth-neutral.
    extras: Dict[str, float] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (the Fig. 8/9 metric)."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def fetch_ipc(self) -> float:
        """Correct-path instructions delivered per correct-path fetch cycle.

        The paper's Table 3 "Fetch IPC": the actual fetch width achieved
        when the engine produced instructions.  ``Processor.run`` counts
        only correct-path work here: a cycle adds to ``fetch_cycles``
        (and its instructions to ``fetched_instructions``) only if its
        bundle delivered at least one correct-path instruction, and only
        those instructions count.  Wrong-path bundles, and the
        wrong-path tail of a bundle that diverged, go to
        ``wrong_path_instructions`` instead.
        """
        if self.fetch_cycles == 0:
            return 0.0
        return self.fetched_instructions / self.fetch_cycles

    @property
    def branch_misprediction_rate(self) -> float:
        """Mispredictions per committed control-flow instruction."""
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def cond_misprediction_rate(self) -> float:
        if self.cond_branches == 0:
            return 0.0
        return self.cond_mispredictions / self.cond_branches

    @property
    def wrong_path_fraction(self) -> float:
        total = self.fetched_instructions
        if total == 0:
            return 0.0
        return self.wrong_path_instructions / total

    # ------------------------------------------------------------------
    def summary(self) -> str:
        opt = "opt" if self.optimized else "base"
        return (
            f"{self.benchmark:10s} {self.engine:7s} {self.width}-wide {opt:4s}  "
            f"IPC={self.ipc:5.2f}  fetchIPC={self.fetch_ipc:5.2f}  "
            f"mispred={100 * self.branch_misprediction_rate:5.2f}%  "
            f"cycles={self.cycles}"
        )
