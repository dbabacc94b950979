"""Arena-hazard pass: a static race detector over the memory plan.

The execution engine serves every intermediate from one preallocated arena
packed by :class:`~repro.runtime.memory_planner.MemoryPlan`. This pass
re-derives, per step, the byte-intervals read and written on that arena and
reports:

* intermediates with no arena assignment (the step would have nowhere to
  write);
* WAR hazards — a step whose output bytes overlap one of its own operand
  buffers (the executor writes through ``out=`` while reading the operand);
* WAW / cross-step aliasing — two tensors whose live ranges conflict under
  the plan's ``exclusive_writes`` semantics sharing bytes;
* liveness drift — a plan whose recorded live ranges disagree with a fresh
  :func:`repro.analysis.liveness.live_ranges` computation (a stale plan).

It supersedes the executor's former ad-hoc aliasing assertions: the
:class:`~repro.runtime.executor.ExecutionPlan` now runs this pass at plan
time and raises :class:`~repro.errors.PlanningError` from its errors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.liveness import LiveRange
from repro.runtime.memory_planner import MemoryPlan, _conflicts
from repro.te.tensor import Tensor
from repro.verify.diagnostics import (
    Diagnostic,
    Location,
    PASS_ARENA_HAZARD,
    error,
    warning,
)
from repro.verify.view import ProgramLike, as_view

Sizer = Callable[[Tensor], int]


def _recompute_live(view) -> Dict[int, LiveRange]:
    """Lenient liveness recomputation straight off the view (no validation)."""
    end = len(view.nodes)
    result: Dict[int, LiveRange] = {}
    # A tiled chain's blocks are several nodes writing one tensor; the
    # tensor is defined at the *first* writer (earliest block).
    producer_index: Dict[int, int] = {}
    for n in view.nodes:
        producer_index.setdefault(id(n.tensor), n.index)
    last_use: Dict[int, int] = {}
    for node in view.nodes:
        for operand in node.inputs:
            key = id(operand)
            last_use[key] = max(last_use.get(key, node.index), node.index)
    for tensor in view.inputs + [n.tensor for n in view.nodes]:
        key = id(tensor)
        def_index = producer_index.get(key, -1)
        use = last_use.get(key, def_index)
        if view.is_output(tensor):
            use = end
        result[key] = LiveRange(tensor, def_index, use)
    return result


def check_arena(
    program: ProgramLike,
    plan: MemoryPlan,
    sizer: Optional[Sizer] = None,
    require_exclusive_writes: bool = True,
    inplace: Optional[Iterable[Tuple[int, int]]] = None,
) -> List[Diagnostic]:
    """Run the arena-hazard pass for one program + memory plan.

    ``require_exclusive_writes`` reflects the *consumer's* semantics: the
    numpy executor writes a step's output while reading its operands, so
    operand/result overlap is an error even if the plan itself was packed
    with relaxed (GPU in-place) rules; pass ``False`` to model a backend
    that tolerates in-place reuse, which downgrades those to warnings.

    ``inplace`` is an allowlist of ``(writer tensor id, operand tensor id)``
    pairs for which operand/result sharing is *deliberate* — the plan
    optimizer's in-place elision, where the step fully evaluates its value
    into temporaries before the final arena write and the operand dies at
    that step. Allowlisted pairs skip the WAR check and use relaxed
    (boundary-exclusive) overlap in the pairwise check; all other hazards
    still fire.
    """
    view = as_view(program)
    diags: List[Diagnostic] = []
    allow = frozenset(inplace) if inplace else frozenset()

    byte_range: Dict[int, Tuple[int, int]] = {}
    assignment_of = {id(t): a for t, a in plan.assignments.items()}
    for tensor, a in plan.assignments.items():
        nbytes = sizer(tensor) if sizer is not None else a.nbytes
        byte_range[id(tensor)] = (a.offset, a.offset + nbytes)

    fresh = _recompute_live(view)

    # ---- coverage + liveness drift --------------------------------------
    for node in view.nodes:
        tensor = node.tensor
        if id(tensor) not in assignment_of:
            if not view.is_output(tensor):
                diags.append(error(
                    PASS_ARENA_HAZARD,
                    Location("step", node.name, f"step {node.index}"),
                    "intermediate has no arena assignment",
                    "re-plan memory for this program before executing",
                ))
            continue
        if view.is_output(tensor):
            diags.append(warning(
                PASS_ARENA_HAZARD, Location("step", node.name),
                "program output occupies arena bytes (outputs live in "
                "caller-owned buffers)",
                "exclude outputs from the memory plan",
            ))

    for tensor, a in plan.assignments.items():
        live = fresh.get(id(tensor))
        if live is None:
            diags.append(warning(
                PASS_ARENA_HAZARD, Location("tensor", tensor.name),
                "arena assignment for a tensor that is not part of the "
                "program",
                "re-plan memory for this program",
            ))
            continue
        if (live.def_index != a.live.def_index
                or live.last_use != a.live.last_use):
            diags.append(error(
                PASS_ARENA_HAZARD, Location("tensor", tensor.name),
                f"plan liveness [{a.live.def_index}, {a.live.last_use}] is "
                f"stale: the program's live range is "
                f"[{live.def_index}, {live.last_use}]",
                "the plan was computed for a different program revision; "
                "re-run the memory planner",
            ))

    # ---- step-level WAR: output bytes vs operand bytes ------------------
    for node in view.nodes:
        out_range = byte_range.get(id(node.tensor))
        if out_range is None:
            continue
        for operand in node.inputs:
            in_range = byte_range.get(id(operand))
            if in_range is None or operand is node.tensor:
                continue
            if (id(node.tensor), id(operand)) in allow:
                continue
            if out_range[0] < in_range[1] and in_range[0] < out_range[1]:
                loc = Location("step", node.name, f"step {node.index}")
                message = (
                    f"WAR hazard: step writes {node.name} at bytes "
                    f"[{out_range[0]}, {out_range[1]}) while reading "
                    f"operand {operand.name} at [{in_range[0]}, "
                    f"{in_range[1]})"
                )
                if require_exclusive_writes:
                    diags.append(error(
                        PASS_ARENA_HAZARD, loc,
                        message + "; in-place execution would corrupt "
                        "results",
                        "pack the plan with exclusive_writes=True",
                    ))
                else:
                    diags.append(warning(
                        PASS_ARENA_HAZARD, loc,
                        message + " (legal only for backends with in-place "
                        "semantics)",
                    ))

    # ---- pairwise aliasing under the plan's own conflict rules ----------
    items = list(plan.assignments.items())
    for i, (tensor_a, a) in enumerate(items):
        ra = byte_range[id(tensor_a)]
        live_a = fresh.get(id(tensor_a), a.live)
        for tensor_b, b in items[i + 1:]:
            rb = byte_range[id(tensor_b)]
            if not (ra[0] < rb[1] and rb[0] < ra[1]):
                continue
            live_b = fresh.get(id(tensor_b), b.live)
            if ((id(tensor_a), id(tensor_b)) in allow
                    or (id(tensor_b), id(tensor_a)) in allow):
                conflict = live_a.overlaps(live_b)
            else:
                conflict = _conflicts(live_a, live_b, plan.exclusive_writes
                                      or require_exclusive_writes)
            if conflict:
                first, second = (
                    (tensor_a, tensor_b)
                    if live_a.def_index <= live_b.def_index
                    else (tensor_b, tensor_a)
                )
                diags.append(error(
                    PASS_ARENA_HAZARD,
                    Location("tensor", second.name),
                    f"WAW/aliasing hazard: {second.name} shares bytes with "
                    f"{first.name} while both are live "
                    f"({tensor_a.name} [{ra[0]}, {ra[1]}) vs "
                    f"{tensor_b.name} [{rb[0]}, {rb[1]}))",
                    "their live ranges conflict; give them disjoint "
                    "arena intervals",
                ))

    diags.extend(_check_scratch(plan))
    return diags


def _check_scratch(plan: MemoryPlan) -> List[Diagnostic]:
    """Validate tiled-chain scratch layouts (see ``runtime.tiling``).

    Every chain's block runs carve its intermediates from one per-worker
    scratch buffer of ``plan.scratch_bytes``; two intermediates of the same
    chain are live simultaneously within a block run, so any overlap — or
    a block reaching outside the buffer — would corrupt results exactly
    like an arena aliasing bug.
    """
    diags: List[Diagnostic] = []
    total = getattr(plan, "scratch_bytes", 0)
    chains = getattr(plan, "scratch_chains", None) or {}
    for chain_id, entries in chains.items():
        spans: List[Tuple[int, int, str]] = []
        for name, offset, nbytes in entries:
            if offset < 0 or offset + nbytes > total:
                diags.append(error(
                    PASS_ARENA_HAZARD, Location("scratch", name),
                    f"scratch block for {name} [{offset}, "
                    f"{offset + nbytes}) exceeds the chain-{chain_id} "
                    f"scratch buffer of {total} bytes",
                    "re-run the tiling pass; its layout is corrupt",
                ))
                continue
            spans.append((offset, offset + nbytes, name))
        spans.sort()
        for (_, a_end, a_name), (b_off, b_end, b_name) in zip(
            spans, spans[1:]
        ):
            if b_off < a_end:
                diags.append(error(
                    PASS_ARENA_HAZARD, Location("scratch", b_name),
                    f"scratch blocks alias: {b_name} overlaps {a_name} "
                    f"inside chain {chain_id} "
                    f"(both live for the whole block run)",
                    "give chain intermediates disjoint scratch offsets",
                ))
    return diags

