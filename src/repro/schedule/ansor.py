"""Ansor-like auto-scheduler (paper Sec. 6.3).

Souffle only needs Ansor as an oracle that, per TE, returns an optimised
schedule together with its resource usage (launch dimensions, shared memory
and register occupancy — Sec. 5.4 "Get required resource"). This module
provides that oracle: a tile-size search over the analytic device model for
contraction TEs, plus deterministic schedule templates for reduction and
elementwise TEs.

Schedules for structurally identical TEs are memoised, which keeps
compilation linear for models like LSTM with thousands of identical cells.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.cache.schedule_cache import ScheduleCache

from repro.analysis.characterize import _structure_key, te_flops
from repro.errors import ScheduleError
from repro.gpu.device import GPUSpec
from repro.gpu.kernel import KernelSpec
from repro.gpu.simulator import GPUSimulator
from repro.graph.te_program import TENode
from repro.schedule.schedule import (
    CONV,
    ELEMENTWISE,
    MATMUL,
    REDUCE,
    ScheduleStep,
    TESchedule,
)
from repro.te.expr import Reduce
from repro.te.patterns import count_arith_ops, match_matmul
from repro.te.tensor import Tensor, dtype_bytes
from repro.te.traversal import tensor_inputs


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# Fraction of repeated tile reads that still reach DRAM when the operand
# fits in L2: re-reads of a resident operand are mostly served on-chip.
L2_REREAD_DRAM_FRACTION = 0.05


def _l2_filtered(tensor_bytes: float, reload_factor: int, l2_bytes: int) -> float:
    """DRAM traffic for reading an operand ``reload_factor`` times in one
    kernel. Operands that fit comfortably in L2 pay full price once and a
    small residual for each re-read; larger operands stream every time."""
    if reload_factor <= 1 or tensor_bytes > l2_bytes / 2:
        return tensor_bytes * reload_factor
    rereads = tensor_bytes * (reload_factor - 1)
    return tensor_bytes + rereads * L2_REREAD_DRAM_FRACTION


class ContractionDims:
    """GEMM-shaped cost dimensions (batch, M, N, K) extracted from a TE."""

    def __init__(self, batch: int, m: int, n: int, k: int) -> None:
        self.batch = batch
        self.m = m
        self.n = n
        self.k = k

    def __repr__(self) -> str:
        return f"(b={self.batch}, M={self.m}, N={self.n}, K={self.k})"


def contraction_dims(node: TENode) -> Optional[ContractionDims]:
    """Extract (batch, M, N, K) for matmul/conv-shaped TEs, else ``None``."""
    tensor = node.tensor
    if tensor.op is None or not isinstance(tensor.op.body, Reduce):
        return None
    k = 1
    for ax in tensor.op.body.axes:
        k *= ax.extent
    shape = tensor.shape
    if node.op_type in ("conv2d", "depthwise_conv2d"):
        n_batch, channels, oh, ow = shape
        return ContractionDims(1, n_batch * oh * ow, channels, k)
    if len(shape) == 1:  # GEMV
        return ContractionDims(1, shape[0], 1, k)
    if len(shape) == 2:
        return ContractionDims(1, shape[0], shape[1], k)
    # Batched: fold all leading dims into the batch.
    batch = 1
    for extent in shape[:-2]:
        batch *= extent
    return ContractionDims(batch, shape[-2], shape[-1], k)


# Reductions with fewer outputs than this use the two-phase schedule
# (per-block partials + global atomicAdd); their final value only exists
# after a device-wide synchronisation point.
TWO_PHASE_OUTPUT_THRESHOLD = 128


def is_two_phase_reduction(tensor: Tensor) -> bool:
    """Whether the reduce schedule for ``tensor`` needs a global atomic."""
    if tensor.op is None or not isinstance(tensor.op.body, Reduce):
        return False
    return tensor.num_elements < TWO_PHASE_OUTPUT_THRESHOLD


class AnsorScheduler:
    """Searches schedules for TEs against an analytic device model."""

    # Tile candidates for the contraction search.
    TILES_I = (16, 32, 64, 128)
    TILES_J = (16, 32, 64, 128)
    TILES_K = (16, 32, 64)

    def __init__(self, device: GPUSpec) -> None:
        self.device = device
        self.simulator = GPUSimulator(device)
        self._cache: Dict[tuple, TESchedule] = {}
        self.search_trials = 0  # counts simulated candidates (Sec. 8.5)
        # Optional persistent tier (repro.cache): set via attach_cache().
        self._persistent: Optional["ScheduleCache"] = None
        self._cache_context: Optional[str] = None
        # schedule() may be called from several threads; the lock also
        # makes search_trials deterministic (each structure is built exactly
        # once regardless of thread interleaving).
        self._lock = threading.Lock()

    # ---- public API ---------------------------------------------------------

    def attach_cache(
        self, cache: "ScheduleCache", options_token: str = ""
    ) -> None:
        """Plug a persistent schedule cache behind the in-memory memo.

        The cache context keys entries by scheduler class, device model and
        compiler options, so different oracles/targets never share entries.
        """
        from repro.cache.keys import schedule_context

        self._persistent = cache
        self._cache_context = schedule_context(
            type(self).__name__, self.device, options_token
        )

    def schedule(self, node: TENode) -> TESchedule:
        """Return an optimised schedule for one TE (memoised by structure,
        backed by the persistent cache when one is attached)."""
        from dataclasses import replace

        with self._lock:
            key = _structure_key(node)
            cached = self._cache.get(key)
            if cached is not None:
                # Re-target the cached schedule at this node.
                return replace(cached, node=node)
            if self._persistent is not None:
                from repro.cache.keys import schedule_cache_key

                pkey = schedule_cache_key(self._cache_context, node)
                loaded = self._persistent.load(pkey, node)
                if loaded is not None:
                    self._cache[key] = loaded
                    return loaded
                schedule = self._build(node)
                self._cache[key] = schedule
                self._persistent.store(pkey, schedule)
                return schedule
            schedule = self._build(node)
            self._cache[key] = schedule
            return schedule

    # ---- internals ----------------------------------------------------------

    def _build(self, node: TENode) -> TESchedule:
        tensor = node.tensor
        if tensor.op is None:
            raise ScheduleError(f"cannot schedule placeholder {tensor.name}")
        dims = contraction_dims(node)
        if dims is not None and self._is_matmul_like(node, dims):
            return self._schedule_contraction(node, dims)
        if isinstance(tensor.op.body, Reduce):
            return self._schedule_reduce(node)
        return self._schedule_elementwise(node)

    def _is_matmul_like(self, node: TENode, dims: ContractionDims) -> bool:
        """Contractions big enough to benefit from tiled/tensor-core code."""
        if node.op_type in ("conv2d",):
            return True
        if match_matmul(node.tensor) is None and node.op_type not in (
            "batch_matmul",
            "matmul",
            "gemv",
        ):
            return False
        return dims.m * dims.n >= 256 and dims.k >= 8

    # ---- contraction search --------------------------------------------------

    def _schedule_contraction(
        self, node: TENode, dims: ContractionDims
    ) -> TESchedule:
        tensor = node.tensor
        use_tc = tensor.dtype == "float16"
        bytes_el = dtype_bytes(tensor.dtype)

        best: Optional[TESchedule] = None
        best_time = math.inf
        for ti in self.TILES_I:
            if ti > 2 * dims.m:
                continue
            for tj in self.TILES_J:
                if tj > 2 * max(dims.n, 1):
                    continue
                for tk in self.TILES_K:
                    if tk > 2 * dims.k:
                        continue
                    candidate = self._contraction_candidate(
                        node, dims, ti, tj, tk, use_tc, bytes_el
                    )
                    if candidate is None:
                        continue
                    self.search_trials += 1
                    time_us = self._estimate(candidate)
                    if time_us < best_time:
                        best, best_time = candidate, time_us
        if best is None:
            # Degenerate contraction (tiny dims): fall back to reduce template.
            return self._schedule_reduce(node)
        best.steps.extend(self._contraction_steps(best))
        return best

    def _contraction_candidate(
        self,
        node: TENode,
        dims: ContractionDims,
        ti: int,
        tj: int,
        tk: int,
        use_tc: bool,
        bytes_el: int,
    ) -> Optional[TESchedule]:
        device = self.device
        if use_tc:
            warps = max((ti // 16) * (tj // 16), 1)
            threads = min(warps * 32, device.max_threads_per_block)
            regs = 96
        else:
            threads = max(64, min((ti * tj) // 16, device.max_threads_per_block))
            regs = 64
        smem = (ti * tk + tk * tj) * bytes_el * 2  # double-buffered stages
        if smem > device.shared_mem_per_sm:
            return None
        if device.blocks_per_sm(threads, smem, regs) < 1:
            return None

        blocks = dims.batch * _ceil_div(dims.m, ti) * _ceil_div(max(dims.n, 1), tj)
        n_dim = max(dims.n, 1)
        if node.op_type in ("conv2d", "depthwise_conv2d"):
            # Direct convolution reads each input element once per output
            # tile that covers it — NOT the im2col-expanded M*K footprint
            # (overlapping patches are served from shared memory).
            inputs = tensor_inputs(node.tensor)
            sizes = sorted((t.size_bytes for t in inputs), reverse=True)
            lhs_bytes = float(sizes[0]) if sizes else 0.0
            rhs_bytes = float(sum(sizes[1:]))
        else:
            lhs_bytes = float(dims.batch * dims.m * dims.k * bytes_el)
            rhs_bytes = float(dims.batch * dims.k * n_dim * bytes_el)
        loads = _l2_filtered(
            lhs_bytes, _ceil_div(n_dim, tj), device.l2_cache_bytes
        ) + _l2_filtered(rhs_bytes, _ceil_div(dims.m, ti), device.l2_cache_bytes)
        stores = dims.batch * dims.m * n_dim * bytes_el
        flops = 2.0 * dims.batch * dims.m * max(dims.n, 1) * dims.k
        return TESchedule(
            node=node,
            kind=CONV if node.op_type in ("conv2d", "depthwise_conv2d") else MATMUL,
            tile=(ti, tj, tk),
            grid_blocks=blocks,
            threads_per_block=threads,
            shared_mem_per_block=smem,
            regs_per_thread=regs,
            use_tensor_core=use_tc,
            load_bytes=float(loads),
            store_bytes=float(stores),
            fp16_flops=flops if use_tc else 0.0,
            fp32_flops=0.0 if use_tc else flops,
        )

    def _contraction_steps(self, schedule: TESchedule) -> List[ScheduleStep]:
        ti, tj, tk = schedule.tile
        return [
            ScheduleStep("split", f"i, j, k -> {ti}, {tj}, {tk}"),
            ScheduleStep("reorder", "io, jo, ko, ii, jj, ki"),
            ScheduleStep("cache_read", "inputs -> shared (double buffered)"),
            ScheduleStep("bind", "io*jo -> blockIdx.x, inner -> threadIdx"),
        ]

    # ---- reduction template -----------------------------------------------------

    def _schedule_reduce(self, node: TENode) -> TESchedule:
        tensor = node.tensor
        assert tensor.op is not None and isinstance(tensor.op.body, Reduce)
        out_elems = tensor.num_elements
        reduce_size = 1
        for ax in tensor.op.body.axes:
            reduce_size *= ax.extent
        bytes_el = dtype_bytes(tensor.dtype)
        inputs = tensor_inputs(tensor)
        load_bytes = float(sum(t.size_bytes for t in inputs))
        flops = float(te_flops(tensor))
        threads = 256
        steps = [ScheduleStep("split", f"reduce domain {reduce_size}")]

        if not is_two_phase_reduction(tensor):
            # One warp per output row, persistent-style: blocks never exceed
            # one wave; extra rows are looped serially inside each block.
            rows_per_block = threads // self.device.warp_size
            blocks = _ceil_div(out_elems, rows_per_block)
            blocks = min(blocks, self._wave_cap(threads))
            atomic = 0.0
            smem = threads * bytes_el
            steps.append(ScheduleStep("bind", "row -> warp, rows -> blockIdx.x"))
        else:
            # Two-phase reduction: per-block partials + global atomicAdd,
            # exactly the paper's aggressive reduction fusion substrate
            # (Sec. 2.3 "partial reduction ... atomicAdd for global
            # reduction").
            blocks = max(1, min(_ceil_div(reduce_size, 2048), 2 * self.device.sm_count))
            atomic = float(blocks * out_elems * bytes_el)
            smem = threads * bytes_el
            steps.append(
                ScheduleStep("rfactor", f"{blocks} partial blocks + atomicAdd")
            )

        return TESchedule(
            node=node,
            kind=REDUCE,
            tile=(0, 0, 0),
            grid_blocks=blocks,
            threads_per_block=threads,
            shared_mem_per_block=smem,
            regs_per_thread=32,
            use_tensor_core=False,
            load_bytes=load_bytes,
            store_bytes=float(tensor.size_bytes),
            fp16_flops=0.0,
            fp32_flops=flops,
            atomic_bytes=atomic,
            steps=steps,
        )

    # ---- elementwise template -----------------------------------------------------

    def _schedule_elementwise(self, node: TENode) -> TESchedule:
        tensor = node.tensor
        assert tensor.op is not None
        elems = tensor.num_elements
        bytes_el = dtype_bytes(tensor.dtype)
        inputs = tensor_inputs(tensor)
        load_bytes = float(sum(t.size_bytes for t in inputs))
        arith = count_arith_ops(tensor.op.body)
        threads = 256
        items_per_thread = 4
        blocks = max(1, _ceil_div(elems, threads * items_per_thread))
        blocks = min(blocks, self._wave_cap(threads))
        return TESchedule(
            node=node,
            kind=ELEMENTWISE,
            tile=(0, 0, 0),
            grid_blocks=blocks,
            threads_per_block=threads,
            shared_mem_per_block=0,
            regs_per_thread=24,
            use_tensor_core=False,
            load_bytes=load_bytes,
            store_bytes=float(elems * bytes_el),
            fp16_flops=0.0,
            fp32_flops=float(arith * elems),
            steps=[
                ScheduleStep("fuse", "all spatial axes"),
                ScheduleStep("bind", f"grid {blocks} x {threads}, ilp=4"),
            ],
        )

    def _wave_cap(self, threads: int) -> int:
        """Grid-size cap for persistent-style memory-bound schedules: one
        wave of resident blocks; extra work loops inside each block."""
        return max(self.device.max_blocks_per_wave(threads, 0), 1)

    # ---- cost -----------------------------------------------------------------

    def _estimate(self, schedule: TESchedule) -> float:
        kernel = KernelSpec(
            name=f"probe_{schedule.node.name}",
            grid_blocks=schedule.grid_blocks,
            threads_per_block=schedule.threads_per_block,
            shared_mem_per_block=schedule.shared_mem_per_block,
            regs_per_thread=schedule.regs_per_thread,
            fp16_flops=schedule.fp16_flops,
            fp32_flops=schedule.fp32_flops,
            load_bytes=schedule.load_bytes,
            store_bytes=schedule.store_bytes,
            atomic_bytes=schedule.atomic_bytes,
        )
        return self.simulator.run_kernel(kernel).time_us
