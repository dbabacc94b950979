"""Kernel descriptors consumed by the analytic simulator.

A :class:`KernelSpec` is the contract between every compiler in this repo
(Souffle and the six baselines) and the performance model: launch geometry,
resource footprint, arithmetic work split by precision, and global-memory
traffic after all fusion/reuse decisions have been applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class KernelSpec:
    """One GPU kernel launch."""

    name: str
    grid_blocks: int
    threads_per_block: int
    shared_mem_per_block: int = 0       # bytes
    regs_per_thread: int = 32

    # Arithmetic work.
    fp16_flops: float = 0.0             # tensor-core eligible FLOPs
    fp32_flops: float = 0.0             # CUDA-core FLOPs

    # Global memory traffic (after fusion & reuse decisions).
    load_bytes: float = 0.0
    store_bytes: float = 0.0
    atomic_bytes: float = 0.0           # global atomicAdd traffic

    # Intra-kernel structure.
    grid_syncs: int = 0                 # grid.sync() calls inside the kernel
    pipelined: bool = False             # ldgsts/compute overlap scheduled

    # Codegen-quality overrides: fraction of peak the generated code achieves.
    # ``None`` uses the simulator defaults; baselines use these to model
    # documented strengths/weaknesses (e.g. TensorRT's hand-tuned GEMMs vs
    # IREE's weak direct-conv code, paper Sec. 8.1).
    compute_efficiency: Optional[float] = None
    bandwidth_efficiency: Optional[float] = None
    te_names: List[str] = field(default_factory=list)
    source_ops: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0 or self.threads_per_block <= 0:
            raise ValueError(
                f"kernel {self.name} has empty launch geometry "
                f"({self.grid_blocks} x {self.threads_per_block})"
            )

    @property
    def total_flops(self) -> float:
        return self.fp16_flops + self.fp32_flops

    @property
    def total_bytes(self) -> float:
        return self.load_bytes + self.store_bytes + self.atomic_bytes

    @property
    def is_compute_bound_hint(self) -> bool:
        """Rough arithmetic-intensity hint (FLOPs per byte > 10)."""
        return self.total_flops > 10 * max(self.total_bytes, 1.0)

    def __repr__(self) -> str:
        return (
            f"<Kernel {self.name}: grid={self.grid_blocks} "
            f"threads={self.threads_per_block} smem={self.shared_mem_per_block}B "
            f"flops={self.total_flops:.3g} bytes={self.total_bytes:.3g}>"
        )


@dataclass
class KernelMetrics:
    """Simulated performance counters for one kernel (Nsight stand-in)."""

    kernel: KernelSpec
    time_us: float
    compute_time_us: float
    memory_time_us: float
    launch_overhead_us: float
    sync_overhead_us: float
    occupancy: float                # resident blocks / max resident blocks
    wave_utilization: float         # grid blocks / max blocks per wave (<=1)
    lsu_utilization: float          # load-store pipeline busy fraction
    fma_utilization: float          # arithmetic pipeline busy fraction
