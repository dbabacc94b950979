"""Resource-aware TE program partitioning (paper Sec. 5.4, Algorithm 1 l.2-9).

Souffle generates the largest kernels the grid-synchronisation constraint
allows: every block of a kernel containing a ``grid.sync()`` must be
co-resident on the device (one wave). The partitioner walks the TE program
in BFS/topological order, obtains each compute-intensive TE's schedule from
the schedule oracle (Ansor), and starts a new subprogram whenever adding a
TE would violate ``max_grid * max_occ < C`` or the max-blocks-per-wave bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.characterize import (
    COMPUTE_INTENSIVE,
    TECharacter,
    characterize_program,
)
from repro.gpu.device import GPUSpec
from repro.graph.te_program import TENode, TEProgram
from repro.schedule.ansor import AnsorScheduler
from repro.schedule.schedule import TESchedule


@dataclass
class Subprogram:
    """A contiguous group of TEs mapped to one GPU kernel."""

    index: int
    nodes: List[TENode] = field(default_factory=list)
    ci_nodes: List[TENode] = field(default_factory=list)
    sync_feasible: bool = True  # all blocks co-resident -> grid.sync legal

    @property
    def names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def __repr__(self) -> str:
        return (
            f"<Subprogram {self.index}: {len(self.nodes)} TEs, "
            f"{len(self.ci_nodes)} compute-intensive, "
            f"sync={'yes' if self.sync_feasible else 'no'}>"
        )


@dataclass
class PartitionResult:
    """Subprograms plus the analysis artifacts partitioning produced."""

    subprograms: List[Subprogram]
    schedules: Dict[TENode, TESchedule]
    characters: Dict[TENode, TECharacter]

    @property
    def num_subprograms(self) -> int:
        return len(self.subprograms)


class Partitioner:
    """Greedy BFS partitioner with the paper's analytical resource model."""

    def __init__(self, device: GPUSpec, scheduler: Optional[AnsorScheduler] = None,
                 max_tes_per_subprogram: int = 50000) -> None:
        self.device = device
        self.scheduler = scheduler or AnsorScheduler(device)
        # Safety valve: a subprogram is one kernel; merging unboundedly many
        # TEs into one function stops paying off and blows up codegen. The
        # paper's kernels hold tens of TEs (e.g. 24 kernels for BERT).
        self.max_tes_per_subprogram = max_tes_per_subprogram

    def partition(self, program: TEProgram,
                  characters: Optional[Dict[TENode, TECharacter]] = None
                  ) -> PartitionResult:
        """Split ``program`` into subprograms satisfying the sync constraint."""
        chars = characters or characterize_program(program)
        schedules: Dict[TENode, TESchedule] = {}
        subprograms: List[Subprogram] = []

        current = Subprogram(0)
        for node in program:  # program order is a BFS-compatible topological order
            is_ci = chars[node].kind == COMPUTE_INTENSIVE
            if is_ci:
                sched = self.scheduler.schedule(node)
                schedules[node] = sched
                if current.ci_nodes and not self._fits(
                    [schedules[n] for n in current.ci_nodes] + [sched]
                ):
                    subprograms.append(current)
                    current = Subprogram(len(subprograms))
            elif len(current.nodes) >= self.max_tes_per_subprogram:
                subprograms.append(current)
                current = Subprogram(len(subprograms))
            current.nodes.append(node)
            if is_ci:
                current.ci_nodes.append(node)
                current.sync_feasible = self._fits(
                    [schedules[n] for n in current.ci_nodes]
                )
        if current.nodes:
            subprograms.append(current)
        return PartitionResult(subprograms, schedules, chars)

    # ---- the analytical model (Sec. 5.4 "Partitioning algorithm") ----------

    def _fits(self, schedules: Sequence[TESchedule]) -> bool:
        """Resource feasibility of co-scheduling these compute-intensive TEs
        in one merged kernel.

        The merged function declares each TE's staging buffers (Fig. 2's
        accumulating ``shared SI0[..], SW0[..], ... SI2[..], SW2[..]``), so
        the per-block occupancy is the *sum* of the TEs' shared-memory
        footprints. The paper's constraint ``max_grid * max_occ < C`` is then
        checked against the device-wide capacity, together with the
        max-blocks-per-wave bound required for grid synchronisation.
        """
        if not schedules:
            return True
        max_grid = max(s.grid_blocks for s in schedules)
        occupancy = sum(s.shared_mem_per_block for s in schedules)
        if occupancy > self.device.shared_mem_per_sm:
            return False
        if max_grid * occupancy >= self.device.total_shared_mem:
            return False
        threads = max(s.threads_per_block for s in schedules)
        regs = max(s.regs_per_thread for s in schedules)
        wave_limit = self.device.max_blocks_per_wave(threads, occupancy, regs)
        return max_grid <= wave_limit
