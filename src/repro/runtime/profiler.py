"""Profiling reports: the Nsight Compute stand-in (paper Sec. 7.3).

Produces the counters the paper's tables use: per-kernel latency, bytes
moved through global memory, kernel-call counts, pipeline utilisation, and
the compute- vs memory-intensive latency split of Sec. 8.3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.gpu.kernel import KernelMetrics
from repro.gpu.simulator import ModuleMetrics
from repro.runtime.module import CompiledModule


@dataclass
class KernelProfile:
    """One profiled kernel row."""

    name: str
    time_us: float
    load_bytes: float
    store_bytes: float
    flops: float
    lsu_utilization: float
    fma_utilization: float
    grid_blocks: int
    is_compute_intensive: bool

    @classmethod
    def from_metrics(cls, metrics: KernelMetrics) -> "KernelProfile":
        kernel = metrics.kernel
        return cls(
            name=kernel.name,
            time_us=metrics.time_us,
            load_bytes=kernel.load_bytes + kernel.atomic_bytes,
            store_bytes=kernel.store_bytes + kernel.atomic_bytes,
            flops=kernel.total_flops,
            lsu_utilization=metrics.lsu_utilization,
            fma_utilization=metrics.fma_utilization,
            grid_blocks=kernel.grid_blocks,
            is_compute_intensive=(
                metrics.compute_time_us > metrics.memory_time_us
            ),
        )


@dataclass
class ProfileReport:
    """All counters for one compiled module."""

    module_name: str
    compiler: str
    kernels: List[KernelProfile] = field(default_factory=list)

    @property
    def total_time_us(self) -> float:
        return sum(k.time_us for k in self.kernels)

    @property
    def total_time_ms(self) -> float:
        return self.total_time_us / 1e3

    @property
    def kernel_calls(self) -> int:
        return len(self.kernels)

    @property
    def load_bytes(self) -> float:
        return sum(k.load_bytes for k in self.kernels)

    @property
    def transfer_bytes(self) -> float:
        return sum(k.load_bytes + k.store_bytes for k in self.kernels)

    def latency_split_us(self) -> Tuple[float, float]:
        """(compute-intensive, memory-intensive) kernel latency (Sec. 8.3)."""
        compute = sum(k.time_us for k in self.kernels if k.is_compute_intensive)
        memory = sum(k.time_us for k in self.kernels if not k.is_compute_intensive)
        return compute, memory

    def utilization(self) -> Dict[str, float]:
        """Time-weighted LSU/FMA utilisation (Table 6 counters)."""
        total = max(self.total_time_us, 1e-9)
        return {
            "lsu": sum(k.lsu_utilization * k.time_us for k in self.kernels) / total,
            "fma": sum(k.fma_utilization * k.time_us for k in self.kernels) / total,
        }

    def render(self, top: int = 20) -> str:
        """Text table of the slowest kernels."""
        rows = sorted(self.kernels, key=lambda k: -k.time_us)[:top]
        lines = [
            f"profile: {self.module_name} [{self.compiler}] — "
            f"{self.total_time_ms:.3f} ms, {self.kernel_calls} kernels, "
            f"{self.transfer_bytes / 1e6:.1f} MB moved",
            f"{'kernel':40s} {'us':>9s} {'MB':>8s} {'GFLOP':>8s} "
            f"{'LSU%':>6s} {'FMA%':>6s}",
        ]
        for row in rows:
            lines.append(
                f"{row.name[:40]:40s} {row.time_us:9.2f} "
                f"{(row.load_bytes + row.store_bytes) / 1e6:8.2f} "
                f"{row.flops / 1e9:8.2f} {row.lsu_utilization * 100:6.1f} "
                f"{row.fma_utilization * 100:6.1f}"
            )
        return "\n".join(lines)


def profile_module(module: CompiledModule) -> ProfileReport:
    """Simulate and collect the full counter set for a module."""
    metrics: ModuleMetrics = module.simulate()
    report = ProfileReport(module_name=module.name, compiler=module.compiler)
    report.kernels = [KernelProfile.from_metrics(m) for m in metrics.kernels]
    return report


# ---- execution-engine (wall-clock) profiles ---------------------------------
#
# The counters above come from the analytic GPU model; the plan-based numpy
# execution engine reports *measured* wall time instead. Both surface through
# this module so serving and simulation share one profiling namespace.


def percentiles(samples: Iterable[float]) -> Dict[str, float]:
    """p50/p95/p99 of a window of samples (all zero for an empty window)."""
    window = list(samples)
    if not window:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = np.percentile(np.asarray(window), (50, 95, 99))
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass
class StepTiming:
    """Accumulated wall time of one execution-plan step."""

    index: int
    name: str           # fused steps: "+"-joined constituent TE names
    kind: str           # einsum | map | reduce | const | fused | tiled
    calls: int
    total_seconds: float

    @property
    def mean_us(self) -> float:
        if self.calls == 0:
            return 0.0
        return self.total_seconds / self.calls * 1e6


# A tiled chain's sub-steps are named "<chain>[blk i/n]" (runtime.tiling);
# the chain name itself is "+"-joined like any fused step, so the block
# suffix must be recognised — not split on — when aggregating rows.
_TILED_STEP = re.compile(r"^(?P<base>.+)\[blk (?P<i>\d+)/(?P<n>\d+)\]$")


def aggregate_tiled_steps(steps: List[StepTiming]) -> List[StepTiming]:
    """Collapse per-block rows of one tiled chain into a single row.

    Eight ``softmax[blk i/8]`` rows each carrying 1/8th of the chain's time
    would individually sort below unrelated steps and flood the table;
    reporting one ``softmax[blk x8]`` row with the summed time keeps
    attribution whole. Non-tiled rows pass through untouched, in order.
    """
    out: List[StepTiming] = []
    merged: Dict[str, StepTiming] = {}
    for s in steps:
        m = _TILED_STEP.match(s.name)
        if m is None:
            out.append(s)
            continue
        base, n = m.group("base"), m.group("n")
        agg = merged.get(base)
        if agg is None:
            agg = replace(s, name=f"{base}[blk x{n}]")
            merged[base] = agg
            out.append(agg)
        else:
            agg.total_seconds += s.total_seconds
    return out


@dataclass
class BatchStats:
    """Dynamic-batching counters for one session or server.

    ``mean_occupancy`` is the mean fraction of batch lanes that carried a
    real request (padding lanes excluded); queue-wait percentiles are
    filled in by the :class:`~repro.runtime.batching.BatchingServer`,
    which is the layer that queues (a bare session never waits).
    """

    batches: int
    batched_requests: int
    mean_occupancy: float
    queue_wait_p50_us: float = 0.0
    queue_wait_p95_us: float = 0.0
    queue_wait_p99_us: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches

    def render(self) -> str:
        text = (
            f"batching: {self.batches} batches, "
            f"{self.batched_requests} batched requests, "
            f"mean batch {self.mean_batch_size:.2f}, "
            f"occupancy {self.mean_occupancy * 100:.1f}%"
        )
        if self.queue_wait_p50_us or self.queue_wait_p99_us:
            text += (
                f"; queue wait p50/p95/p99 = "
                f"{self.queue_wait_p50_us:.0f}/"
                f"{self.queue_wait_p95_us:.0f}/"
                f"{self.queue_wait_p99_us:.0f} us"
            )
        return text


@dataclass
class ExecutionProfile:
    """Measured per-request and per-step latency of an inference session."""

    session_name: str
    requests: int
    total_seconds: float
    workspace_bytes: int
    arenas_allocated: int
    # Arena-pool accounting: arenas dropped past the max_pool bound, arenas
    # idle in the pools at report time, and the most arenas ever live at
    # once (in-use + pooled) — what a sharded dispatcher reads to size
    # replicas.
    arenas_trimmed: int = 0
    arenas_pooled: int = 0
    pool_high_water: int = 0
    steps: List[StepTiming] = field(default_factory=list)
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    batching: Optional[BatchStats] = None
    # One-line plan-optimizer summary (None for unoptimized plans).
    optimizer_summary: Optional[str] = None

    @property
    def requests_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.requests / self.total_seconds

    @property
    def mean_latency_us(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_seconds / self.requests * 1e6

    def render(self, top: int = 20) -> str:
        """Text table of the slowest steps plus session-level throughput."""
        lines = [
            f"serving profile: {self.session_name} — "
            f"{self.requests} requests, "
            f"{self.requests_per_second:.1f} req/s, "
            f"{self.mean_latency_us:.1f} us mean latency "
            f"(p50/p95/p99 = {self.p50_us:.0f}/{self.p95_us:.0f}/"
            f"{self.p99_us:.0f} us), "
            f"{self.workspace_bytes / 1e6:.2f} MB arena "
            f"x{self.arenas_allocated}",
        ]
        if self.arenas_trimmed or self.pool_high_water:
            lines.append(
                f"arena pool: high water {self.pool_high_water}, "
                f"{self.arenas_pooled} pooled, "
                f"{self.arenas_trimmed} trimmed"
            )
        if self.batching is not None:
            lines.append(self.batching.render())
        if self.optimizer_summary is not None:
            lines.append(self.optimizer_summary)
        timed = aggregate_tiled_steps(
            [s for s in self.steps if s.calls > 0]
        )
        if not timed:
            lines.append("(per-step timing disabled; profile=True to enable)")
            return "\n".join(lines)
        step_total = sum(s.total_seconds for s in timed) or 1e-12
        shown = sorted(timed, key=lambda s: -s.total_seconds)[:top]
        # Fused step names concatenate their constituent TEs and routinely
        # exceed any fixed column; size the column to what is shown instead
        # of truncating attribution away.
        width = max(36, *(len(s.name) for s in shown))
        lines.append(
            f"{'step':{width}s} {'kind':>7s} {'calls':>7s} {'mean us':>9s} "
            f"{'%':>6s}"
        )
        for s in shown:
            lines.append(
                f"{s.name:{width}s} {s.kind:>7s} {s.calls:7d} "
                f"{s.mean_us:9.2f} {s.total_seconds / step_total * 100:6.1f}"
            )
        return "\n".join(lines)
