"""Identifying data-reuse opportunities (paper Sec. 5.1).

Traverses the TE tensor-dependency graph, gathers tensors accessed by more
than one TE and records the sharing set ``s(t_i) = {op_j, ..., op_k}``.

Two flavours, matching the paper:

* **spatial reuse** — a tensor consumed by TEs with *no* data dependence
  between them (e.g. BERT's QKV GEMMs sharing the input activations); guides
  horizontal transformation (Sec. 6.1);
* **temporal reuse** — a tensor used more than once by *dependent* TEs
  (e.g. the output of arithmetic operator A1 feeding both R1 and A2 in
  Fig. 1, or LSTM weights reused every time step); guides the tensor-reuse
  optimisation (Sec. 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.dependence import independent, reachability_masks
from repro.graph.te_program import TENode, TEProgram
from repro.te.tensor import Tensor


@dataclass(frozen=True)
class ReuseOpportunity:
    """A tensor shared by multiple TEs."""

    tensor: Tensor
    consumers: Tuple[TENode, ...]
    kind: str  # "spatial" | "temporal"

    def __repr__(self) -> str:
        names = ", ".join(n.name for n in self.consumers)
        return f"<{self.kind} reuse of {self.tensor.name} by [{names}]>"


@dataclass
class ReuseAnalysis:
    """Result of the reuse pass: the SR and TR sets of Algorithm 1."""

    spatial: List[ReuseOpportunity] = field(default_factory=list)
    temporal: List[ReuseOpportunity] = field(default_factory=list)

    def sharing_set(self) -> Dict[str, List[str]]:
        """``{tensor name: [consumer TE names]}`` over both kinds."""
        out: Dict[str, List[str]] = {}
        for opp in self.spatial + self.temporal:
            out[opp.tensor.name] = [n.name for n in opp.consumers]
        return out

    def temporal_tensors(self) -> List[Tensor]:
        return [opp.tensor for opp in self.temporal]

    def spatial_tensors(self) -> List[Tensor]:
        return [opp.tensor for opp in self.spatial]


def find_reuse(
    program: TEProgram, masks: Optional[Dict[TENode, int]] = None
) -> ReuseAnalysis:
    """Classify every multiply-consumed tensor as spatial or temporal reuse.

    A shared tensor whose consumers are pairwise independent is a spatial
    reuse opportunity; if any pair of consumers is dependent the tensor is a
    temporal reuse opportunity (its value stays live across dependent TEs and
    is worth caching on-chip). ``masks`` is the program's
    :func:`reachability_masks`, computed here when not given.
    """
    if masks is None:
        masks = reachability_masks(program)
    analysis = ReuseAnalysis()
    for tensor in program.tensors:
        consumers = program.consumers(tensor)
        if len(consumers) < 2:
            continue
        pairwise_independent = True
        for i, a in enumerate(consumers):
            for b in consumers[i + 1 :]:
                if not independent(masks, a, b):
                    pairwise_independent = False
                    break
            if not pairwise_independent:
                break
        kind = "spatial" if pairwise_independent else "temporal"
        opportunity = ReuseOpportunity(tensor, tuple(consumers), kind)
        if pairwise_independent:
            analysis.spatial.append(opportunity)
        else:
            analysis.temporal.append(opportunity)
    return analysis
