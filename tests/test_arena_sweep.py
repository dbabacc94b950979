"""Exactness of the near-linear arena loops against their quadratic oracles.

``memory_planner.conflicting_pairs`` sweeps live ranges once; the packer
(``pack_intervals``) and the arena-hazard pass (``check_arena``) both
consume its pairs. The oracles below are the all-pairs loops those two
ran before the sweep, each with its own copy of the conflict rule, so an
off-by-one in the shared rule or in the sweep shows up as a difference.
Interval sets are seeded and deliberately tie-heavy: equal sizes, equal
offsets, and ranges that end exactly where others start.
"""

import numpy as np
import pytest

from repro.analysis.liveness import LiveRange
from repro.runtime.memory_planner import (
    ALIGNMENT,
    BufferAssignment,
    MemoryPlan,
    conflicting_pairs,
    pack_intervals,
)
from repro.te import placeholder
from repro.verify import check_arena
from repro.verify.diagnostics import Location, PASS_ARENA_HAZARD, error
from repro.verify.hazards import _recompute_live
from repro.verify.view import ProgramView

SEEDS = range(300)
RULES = pytest.mark.parametrize(
    "exclusive", [True, False], ids=["exclusive", "inplace"]
)


# ---- the quadratic oracles ---------------------------------------------------


def oracle_conflicts(a, b, exclusive):
    if exclusive:
        return not (a.last_use < b.def_index or b.last_use < a.def_index)
    return not (a.last_use <= b.def_index or b.last_use <= a.def_index)


def oracle_pack(items, exclusive):
    """Best-fit-decreasing packing, testing every placed item."""
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    offsets = [0] * len(items)
    placed = []
    workspace = 0
    for i in order:
        nbytes = (items[i][0] + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        live = items[i][1]
        conflicts = sorted(
            (p for p in placed if oracle_conflicts(p[2], live, exclusive)),
            key=lambda p: p[0],
        )
        offset = 0
        for existing_offset, existing_end, _ in conflicts:
            if offset + nbytes <= existing_offset:
                break
            offset = max(offset, existing_end)
        offsets[i] = offset
        placed.append((offset, offset + nbytes, live))
        workspace = max(workspace, offset + nbytes)
    return offsets, workspace


def oracle_aliasing(view, plan, sizer, require_exclusive_writes, inplace):
    """check_arena's pairwise WAW/aliasing diagnostics, all pairs tested."""
    allow = frozenset(inplace)
    fresh = _recompute_live(view)
    byte_range = {
        id(t): (a.offset, a.offset + (sizer(t) if sizer else a.nbytes))
        for t, a in plan.assignments.items()
    }
    exclusive = plan.exclusive_writes or require_exclusive_writes
    diags = []
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
                conflict = oracle_conflicts(live_a, live_b, False)
            else:
                conflict = oracle_conflicts(live_a, live_b, exclusive)
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
    return diags


# ---- seeded, tie-heavy inputs ------------------------------------------------


def random_lives(rng, count):
    """Ranges over a short index domain, so ends and starts often tie."""
    lives = []
    for _ in range(count):
        start = int(rng.integers(-1, 10))
        lives.append(LiveRange(None, start, start + int(rng.integers(0, 5))))
    return lives


def random_items(rng):
    sizes = [1, 200, 256, 257, 512, 1024, 4096]
    lives = random_lives(rng, int(rng.integers(0, 40)))
    return [(sizes[int(rng.integers(len(sizes)))], live) for live in lives]


class _Node:
    """A bare step node: what the arena-hazard pass reads of one."""

    def __init__(self, index, tensor, inputs):
        self.index = index
        self.tensor = tensor
        self.name = tensor.name
        self.inputs = inputs


def random_layout(rng):
    """A view, a plan over it and an allowlist, with planted overlaps.

    Steps write one tensor each (two consecutive steps sometimes write the
    same one, like a tiled chain's blocks) and read earlier tensors, so the
    pass derives fresh, tie-heavy live ranges; some assignments belong to
    no step and keep their recorded ranges. Offsets and sizes come from a
    few values, so many pairs share bytes.
    """
    count = int(rng.integers(1, 24))
    tensors = [placeholder((4,), name=f"t{i}") for i in range(count)]
    steps = int(rng.integers(0, count + 1))
    nodes = []
    for k in range(steps):
        writes = tensors[k - 1] if k and rng.random() < 0.1 else tensors[k]
        reads = [
            tensors[int(r)] for r in rng.integers(0, max(k, 1), size=3)
            if r < k and rng.random() < 0.5
        ]
        nodes.append(_Node(len(nodes), writes, reads))
    outputs = [t for t in tensors[:steps] if rng.random() < 0.15]
    view = ProgramView("random", inputs=[], nodes=nodes, outputs=outputs)
    plan = MemoryPlan(exclusive_writes=bool(rng.random() < 0.5))
    ranges = random_lives(rng, count)
    for tensor, live in zip(tensors, ranges):
        if rng.random() < 0.85:
            plan.assignments[tensor] = BufferAssignment(
                tensor,
                256 * int(rng.integers(0, 4)),
                256 * int(rng.integers(1, 3)),
                LiveRange(tensor, live.def_index, live.last_use),
            )
    placed = list(plan.assignments)
    inplace = set()
    for _ in range(int(rng.integers(0, 6)) if placed else 0):
        a, b = rng.integers(0, len(placed), size=2)
        inplace.add((id(placed[int(a)]), id(placed[int(b)])))
    sizer = None
    if rng.random() < 0.3:
        nbytes = {id(t): 128 * int(rng.integers(1, 5)) for t in tensors}
        sizer = lambda t: nbytes[id(t)]  # noqa: E731
    return view, plan, sizer, inplace


# ---- comparisons -------------------------------------------------------------


@RULES
def test_sweep_finds_exactly_the_conflicting_pairs(exclusive):
    for seed in SEEDS:
        lives = random_lives(np.random.default_rng(seed), 30)
        want = {
            (i, j)
            for i in range(len(lives)) for j in range(i + 1, len(lives))
            if oracle_conflicts(lives[i], lives[j], exclusive)
        }
        got = [
            (min(i, j), max(i, j))
            for i, j in conflicting_pairs(lives, exclusive)
        ]
        assert len(got) == len(set(got)), seed
        assert set(got) == want, seed


@RULES
def test_pack_intervals_matches_the_quadratic_packer(exclusive):
    for seed in SEEDS:
        items = random_items(np.random.default_rng(seed))
        assert (pack_intervals(items, exclusive)
                == oracle_pack(items, exclusive)), seed


@pytest.mark.parametrize(
    "require_exclusive_writes", [True, False], ids=["require", "relaxed"]
)
def test_check_arena_matches_the_quadratic_pairwise_check(
    require_exclusive_writes,
):
    flagged = 0
    for seed in SEEDS:
        view, plan, sizer, inplace = random_layout(
            np.random.default_rng(seed)
        )
        got = [
            d for d in check_arena(
                view, plan, sizer=sizer,
                require_exclusive_writes=require_exclusive_writes,
                inplace=inplace,
            )
            if d.message.startswith("WAW/aliasing hazard")
        ]
        want = oracle_aliasing(
            view, plan, sizer, require_exclusive_writes, inplace
        )
        assert [d.render() for d in got] == [d.render() for d in want], seed
        flagged += bool(want)
    assert flagged > len(SEEDS) // 2  # the planted overlaps do fire
