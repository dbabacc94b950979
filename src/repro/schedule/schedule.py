"""Schedule objects and primitives.

A :class:`TESchedule` records how one TE maps onto the GPU: tiling, launch
geometry, resource footprint and the standalone-kernel traffic/work numbers
the partitioner (Sec. 5.4) and the kernel builders consume. The primitive
trace (`steps`) mirrors TVM's schedule language as used in the paper's
Fig. 2 (`split`, `reorder`, `cache_read`, `bind`, `compute_at`, `inline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ScheduleError
from repro.graph.te_program import TENode

# Schedule kinds.
MATMUL = "matmul"          # tensor-core eligible contraction
CONV = "conv"              # direct convolution (implicit-GEMM cost shape)
REDUCE = "reduce"          # generic one-relies-on-many TE
ELEMENTWISE = "elementwise"
OPAQUE = "opaque"          # library fallback (paper Sec. 9)


@dataclass
class ScheduleStep:
    """One schedule primitive application, for inspection/printing."""

    primitive: str
    detail: str

    def __repr__(self) -> str:
        return f"s.{self.primitive}({self.detail})"


@dataclass
class TESchedule:
    """A complete schedule for one TE (or a fused TE group leader)."""

    node: TENode
    kind: str
    tile: Tuple[int, int, int]           # (ti, tj, tk); (0,0,0) if n/a
    grid_blocks: int
    threads_per_block: int
    shared_mem_per_block: int            # bytes
    regs_per_thread: int
    use_tensor_core: bool
    load_bytes: float                    # standalone-kernel global loads
    store_bytes: float                   # standalone-kernel global stores
    fp16_flops: float
    fp32_flops: float
    atomic_bytes: float = 0.0
    steps: List[ScheduleStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise ScheduleError(f"schedule for {self.node.name} has no blocks")
        if self.threads_per_block <= 0:
            raise ScheduleError(f"schedule for {self.node.name} has no threads")

    @property
    def total_flops(self) -> float:
        return self.fp16_flops + self.fp32_flops
