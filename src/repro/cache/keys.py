"""Canonical structural hashing for the compile cache.

Cache keys must be *content addresses*: two compiles see the same entry iff
nothing that influences the produced artifact differs. The ingredients are

* the TE's structural key (op type, output/input shapes and dtypes,
  reduction extents, per-element op-count fingerprints — exactly the key the
  schedulers already memoise on);
* the device specification (every ``GPUSpec`` field participates);
* the compiler options and the scheduler implementation;
* a format version, bumped whenever serialisation or codegen changes.

Everything is normalised to JSON (tuples become lists) and digested with
SHA-256, so keys are stable across processes and platforms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Any, Union

from repro.analysis.characterize import _structure_key
from repro.gpu.device import GPUSpec
from repro.graph.graph import Graph
from repro.graph.te_program import TENode, TEProgram

if TYPE_CHECKING:  # import would cycle through repro.core at runtime
    from repro.core.config import SouffleOptions

# Bump to invalidate every cached schedule (schedule serialisation or the
# scheduler search space changed).
SCHEDULE_FORMAT_VERSION = 1

# Bump to invalidate every cached module (kernel construction, the IR
# serialisation, or the simulator contract changed).
MODULE_FORMAT_VERSION = 1


def _canonical(value: Any) -> Any:
    """Normalise nested tuples/lists to plain JSON-able lists."""
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def _digest(payload: Any) -> str:
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---- fingerprints -------------------------------------------------------------


def structure_key(node: TENode) -> tuple:
    """Public alias for the scheduler memoisation key of one TE."""
    return _structure_key(node)


def device_fingerprint(device: GPUSpec) -> str:
    """Digest over every field of the device model."""
    return _digest(dataclasses.asdict(device))


def options_fingerprint(options: "SouffleOptions") -> str:
    """Digest over every compiler option."""
    return _digest(dataclasses.asdict(options))


def graph_structural_hash(graph: Graph) -> str:
    """Content address of a source operator graph (name-sensitive)."""
    from repro.frontends.serialize import graph_to_dict

    return _digest(graph_to_dict(graph))


def program_structural_hash(program: TEProgram) -> str:
    """Content address of a (possibly transformed) TE program.

    Includes tensor names on top of the per-TE structural keys: cached kernel
    IR mentions tensors by name, so two programs must only share an address
    when their rendered kernels would be byte-identical.
    """
    nodes = []
    for node in program:
        nodes.append(
            [
                node.name,
                node.op_name,
                node.op_type,
                _canonical(structure_key(node)),
                [t.name for t in node.inputs],
            ]
        )
    return _digest(
        {
            "name": program.name,
            "inputs": [[t.name, list(t.shape), t.dtype] for t in program.inputs],
            "nodes": nodes,
            "outputs": [t.name for t in program.outputs],
        }
    )


# ---- cache keys ---------------------------------------------------------------


def schedule_context(
    scheduler_name: str, device: GPUSpec, options_token: str = ""
) -> str:
    """The per-compiler prefix shared by all of one scheduler's entries."""
    return _digest(
        {
            "tier": "schedule",
            "version": SCHEDULE_FORMAT_VERSION,
            "scheduler": scheduler_name,
            "device": device_fingerprint(device),
            "options": options_token,
        }
    )


def schedule_cache_key(context: str, node: TENode) -> str:
    """Content address of one TE's schedule under ``context``."""
    return _digest([context, _canonical(structure_key(node))])


def module_cache_key(
    model: Union[Graph, TEProgram],
    device: GPUSpec,
    options: "SouffleOptions",
    scheduler_name: str,
) -> str:
    """Content address of one whole compiled module."""
    if isinstance(model, Graph):
        source = ["graph", graph_structural_hash(model)]
    else:
        source = ["program", program_structural_hash(model)]
    return _digest(
        {
            "tier": "module",
            "version": MODULE_FORMAT_VERSION,
            "source": source,
            "device": device_fingerprint(device),
            "options": options_fingerprint(options),
            "scheduler": scheduler_name,
        }
    )
