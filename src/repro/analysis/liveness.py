"""Tensor live ranges across the TE program.

The paper's global analysis "captures essential information such as tensor
shapes and live ranges across operator boundaries" (Sec. 1). Live ranges
feed the LRU shared-memory cache (Sec. 6.5) and memory planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.graph.te_program import TEProgram
from repro.te.tensor import Tensor


@dataclass(frozen=True)
class LiveRange:
    """Definition and last-use positions of a tensor, in TE program order.

    ``def_index`` is -1 for placeholders (live from the start);
    ``last_use`` is the index of the final consuming TE, or the program
    length for model outputs (live until the end).
    """

    tensor: Tensor
    def_index: int
    last_use: int

    @property
    def span(self) -> int:
        return self.last_use - max(self.def_index, 0)

    def overlaps(self, other: "LiveRange") -> bool:
        return not (
            self.last_use <= other.def_index or other.last_use <= self.def_index
        )


def live_ranges(program: TEProgram) -> Dict[Tensor, LiveRange]:
    """Live range of every tensor in the program."""
    result: Dict[Tensor, LiveRange] = {}
    end = len(program)
    for tensor in program.tensors:
        producer = program.producer(tensor)
        def_index = producer.index if producer is not None else -1
        consumers = program.consumers(tensor)
        last_use = max((c.index for c in consumers), default=def_index)
        if program.is_output(tensor):
            last_use = end
        result[tensor] = LiveRange(tensor, def_index, last_use)
    return result


def peak_live_bytes(program: TEProgram) -> int:
    """Maximum bytes simultaneously live at any program point.

    A simple sweep used by memory-planning reports and tests.
    """
    ranges = live_ranges(program)
    events: List[tuple] = []
    for lr in ranges.values():
        start = max(lr.def_index, 0)
        events.append((start, lr.tensor.size_bytes))
        events.append((lr.last_use + 1, -lr.tensor.size_bytes))
    events.sort(key=lambda pair: pair[0])
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak
