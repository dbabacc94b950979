"""Roller-style deterministic scheduler (paper Sec. 8.5).

"This overhead can be reduced by using faster optimizer like Roller, which
is orthogonal of Souffle." Roller (OSDI'22) replaces Ansor's search with a
*construction*: pick an rTile whose shapes align with the hardware's native
sizes (tensor-core fragment shapes, memory-transaction widths) and scale it
up until a resource budget is met — no candidate simulation at all.

This module implements that recipe against our device model and exposes the
same oracle interface as :class:`repro.schedule.ansor.AnsorScheduler`, so
``SouffleCompiler(scheduler_factory=RollerScheduler)`` swaps it in. The
ablation benchmark ``benchmarks/test_ablation_scheduler.py`` compares both
on compile time and schedule quality.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.characterize import _structure_key
from repro.errors import ScheduleError
from repro.gpu.device import GPUSpec
from repro.graph.te_program import TENode
from repro.schedule.ansor import (
    AnsorScheduler,
    ContractionDims,
    _ceil_div,
    _l2_filtered,
    contraction_dims,
)
from repro.schedule.schedule import CONV, MATMUL, ScheduleStep, TESchedule
from repro.te.expr import Reduce
from repro.te.tensor import dtype_bytes

# Native alignment units: a tensor-core fragment is 16x16x16; a 128-byte
# memory transaction holds 64 halves / 32 floats.
TC_FRAGMENT = 16
MAX_TILE = 128


def construct_rtile(device: GPUSpec, dims: ContractionDims,
                    bytes_el: int) -> tuple:
    """Roller's rTile construction: start from the hardware-native fragment
    and scale alternating dimensions while

      * the launch still *saturates* the device (>= one block per SM), and
      * the double-buffered staging stays within the shared-memory budget,
      * the thread block stays schedulable (threads/registers fit one SM).

    Deterministic; no candidate is ever simulated.
    """

    def blocks(ti: int, tj: int) -> int:
        return dims.batch * _ceil_div(dims.m, ti) * _ceil_div(max(dims.n, 1), tj)

    def feasible(ti: int, tj: int, tk: int) -> bool:
        smem = (ti * tk + tk * tj) * bytes_el * 2
        if smem > device.shared_mem_per_sm // 2:
            return False
        warps = max((ti // TC_FRAGMENT) * (tj // TC_FRAGMENT), 1)
        threads = min(warps * 32, device.max_threads_per_block)
        return device.blocks_per_sm(threads, smem, 96) >= 1

    ti = tj = TC_FRAGMENT
    tk = TC_FRAGMENT
    # Alternate enlarging the output tile while the grid saturates the SMs.
    progress = True
    while progress:
        progress = False
        for grow_i in (True, False):
            cand_ti = ti * 2 if grow_i else ti
            cand_tj = tj if grow_i else tj * 2
            if cand_ti > MAX_TILE or cand_tj > MAX_TILE:
                continue
            if grow_i and cand_ti > 2 * dims.m:
                continue
            if not grow_i and cand_tj > 2 * max(dims.n, 1):
                continue
            if blocks(cand_ti, cand_tj) < device.sm_count:
                continue
            if not feasible(cand_ti, cand_tj, tk):
                continue
            ti, tj = cand_ti, cand_tj
            progress = True

    # Deepen the reduction stage within the remaining shared-memory budget.
    while tk * 2 <= min(64, 2 * dims.k) and feasible(ti, tj, tk * 2):
        tk *= 2
    return ti, tj, tk


class RollerScheduler(AnsorScheduler):
    """Construction-based scheduling: aligned rTiles, zero search.

    Inherits the reduction/elementwise templates (already deterministic)
    and replaces only the contraction search. The inherited persistent-cache
    support (``attach_cache``) keys entries by scheduler class, so Roller
    and Ansor never serve each other's schedules from the same cache
    directory; a persistent hit skips the construction entirely (the
    ``constructions`` counter then stays flat, mirroring how cached Ansor
    lookups leave ``search_trials`` flat).
    """

    def __init__(self, device: GPUSpec) -> None:
        super().__init__(device)
        self.constructions = 0  # replaces search_trials as the effort metric

    def _schedule_contraction(
        self, node: TENode, dims: ContractionDims
    ) -> TESchedule:
        tensor = node.tensor
        use_tc = tensor.dtype == "float16"
        bytes_el = dtype_bytes(tensor.dtype)
        self.constructions += 1

        ti, tj, tk = construct_rtile(self.device, dims, bytes_el)
        candidate = self._contraction_candidate(
            node, dims, ti, tj, tk, use_tc, bytes_el
        )
        if candidate is None:
            return self._schedule_reduce(node)
        candidate.steps.append(
            ScheduleStep(
                "rtile",
                f"aligned rTile ({ti},{tj},{tk}) — constructed, not searched",
            )
        )
        candidate.steps.extend(self._contraction_steps(candidate))
        return candidate


def compare_schedulers(
    node: TENode, device: GPUSpec
) -> Dict[str, TESchedule]:
    """Schedule one TE with both oracles (used by tests and the ablation)."""
    return {
        "ansor": AnsorScheduler(device).schedule(node),
        "roller": RollerScheduler(device).schedule(node),
    }
