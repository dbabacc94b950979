"""Schedule propagation from compute-intensive producers to memory-intensive
consumers (paper Sec. 6.3 and Algorithm 1 lines 13-18).

A memory-intensive TE attached to a compute-intensive TE inherits the
producer's tile shape and launch dimensions ("Inherit tile shape from TE0's
schedule" in Fig. 2), then its computation is moved into the producer's loop
(`compute_at`) so the intermediate stays in shared memory/registers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.graph.te_program import TENode
from repro.schedule.schedule import ScheduleStep, TESchedule
from repro.te.patterns import count_arith_ops
from repro.te.tensor import dtype_bytes
from repro.te.traversal import tensor_inputs


def propagate_schedule(producer_sched: TESchedule, consumer: TENode) -> TESchedule:
    """Schedule a memory-intensive TE under its compute-intensive producer.

    The propagated schedule keeps the producer's launch geometry and adds the
    consumer's arithmetic; its own global traffic is limited to tensors the
    fused kernel must still read from outside (the producer's output arrives
    on-chip for free).
    """
    tensor = consumer.tensor
    assert tensor.op is not None
    producer_tensor = producer_sched.node.tensor

    extra_loads = 0.0
    for read in tensor_inputs(tensor):
        if read is producer_tensor:
            continue  # arrives via shared memory / registers
        extra_loads += read.size_bytes

    arith = count_arith_ops(tensor.op.body) * tensor.num_elements
    steps = list(producer_sched.steps) + [
        ScheduleStep(
            "split",
            f"{consumer.name}: inherit tile {producer_sched.tile} from "
            f"{producer_sched.node.name}",
        ),
        ScheduleStep("compute_at", f"{consumer.name} -> {producer_sched.node.name}"),
    ]
    return replace(
        producer_sched,
        node=consumer,
        load_bytes=extra_loads,
        store_bytes=float(tensor.size_bytes),
        fp16_flops=0.0,
        fp32_flops=float(arith),
        atomic_bytes=0.0,
        steps=steps,
    )


def inline_elementwise(consumer_sched: TESchedule, producer: TENode) -> TESchedule:
    """Record that an elementwise producer was inlined into ``consumer_sched``.

    Inlining removes the producer's intermediate tensor from global memory:
    the consumer loads the producer's *inputs* instead of its output.
    """
    producer_tensor = producer.tensor
    assert producer_tensor.op is not None
    producer_inputs = sum(t.size_bytes for t in tensor_inputs(producer_tensor))
    load_bytes = (
        consumer_sched.load_bytes - producer_tensor.size_bytes + producer_inputs
    )
    steps = consumer_sched.steps + [
        ScheduleStep("inline", f"{producer.name} -> {consumer_sched.node.name}")
    ]
    return replace(
        consumer_sched, load_bytes=max(load_bytes, 0.0), steps=steps
    )
