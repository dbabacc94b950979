"""TE programs: the global tensor dependency graph (paper Sec. 4-5).

Lowering a model produces a :class:`TEProgram` — an ordered list of
:class:`TENode` (one per tensor expression) plus the placeholder inputs.
The program exposes producer/consumer queries used by every analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import AnalysisError
from repro.te.tensor import Tensor
from repro.te.traversal import tensor_inputs


@dataclass
class TENode:
    """One tensor expression of the program.

    ``op_name``/``op_type`` record the graph operator the TE was lowered
    from (several TEs may share one source operator, e.g. softmax).
    """

    index: int
    tensor: Tensor
    op_name: str
    op_type: str

    @property
    def name(self) -> str:
        return self.tensor.name

    @property
    def inputs(self) -> Tuple[Tensor, ...]:
        """Tensors this TE reads (placeholders or other TE outputs)."""
        return tensor_inputs(self.tensor)

    def __repr__(self) -> str:
        return f"<TE#{self.index} {self.name} from {self.op_name}>"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class TEProgram:
    """An ordered TE program with dependency queries."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[Tensor],
        nodes: Sequence[TENode],
        outputs: Sequence[Tensor],
    ) -> None:
        self.name = name
        self.inputs: List[Tensor] = list(inputs)
        self.nodes: List[TENode] = list(nodes)
        self.outputs: List[Tensor] = list(outputs)
        # Placeholder by name: how name-keyed feeds resolve.
        self.inputs_by_name: Dict[str, Tensor] = {
            t.name: t for t in self.inputs
        }

        # Keyed by the tensors themselves, so a pickled program's indexes
        # travel with it and name the tensors its copy holds.
        self._producer: Dict[Tensor, TENode] = {}
        for node in self.nodes:
            if node.tensor in self._producer:
                raise AnalysisError(f"tensor {node.name} produced twice")
            self._producer[node.tensor] = node

        # One pass over every node's (memoised) reads: each read must name
        # a program input or a TE produced earlier in program order.
        self._consumers: Dict[Tensor, List[TENode]] = {}
        seen: Set[Tensor] = set(self.inputs)
        for node in self.nodes:
            for tensor in node.inputs:
                if tensor not in seen:
                    if tensor not in self._producer:
                        raise AnalysisError(
                            f"TE {node.name} reads unknown tensor {tensor.name}"
                        )
                    raise AnalysisError(
                        f"TE program not topologically ordered: {node.name} "
                        f"reads {tensor.name} before it is produced"
                    )
                self._consumers.setdefault(tensor, []).append(node)
            seen.add(node.tensor)
        for out in self.outputs:
            if out not in self._producer:
                raise AnalysisError(f"output {out.name} has no producer TE")

    # ---- queries --------------------------------------------------------

    def producer(self, tensor: Tensor) -> Optional[TENode]:
        """The TE producing ``tensor``, or ``None`` for placeholders."""
        return self._producer.get(tensor)

    def consumers(self, tensor: Tensor) -> List[TENode]:
        """TEs reading ``tensor``."""
        return list(self._consumers.get(tensor, []))

    def node_producers(self, node: TENode) -> List[TENode]:
        """TEs whose outputs ``node`` reads."""
        result = []
        for tensor in node.inputs:
            producer = self.producer(tensor)
            if producer is not None:
                result.append(producer)
        return result

    def node_consumers(self, node: TENode) -> List[TENode]:
        """TEs reading ``node``'s output."""
        return self.consumers(node.tensor)

    @property
    def tensors(self) -> List[Tensor]:
        """All tensors: inputs then TE outputs, program order."""
        return self.inputs + [node.tensor for node in self.nodes]

    def is_output(self, tensor: Tensor) -> bool:
        return any(tensor is out for out in self.outputs)

    def __iter__(self) -> Iterator[TENode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"<TEProgram {self.name}: {len(self.nodes)} TEs, "
            f"{len(self.inputs)} inputs, {len(self.outputs)} outputs>"
        )
