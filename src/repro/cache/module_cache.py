"""The whole-module tier of the compile cache.

Schedule search is only one slice of compile time; lowering, the TE
transformations and kernel construction dominate once search is memoised.
This tier therefore content-addresses the *entire compiled artifact* — the
kernel specs the simulator consumes and the statement-level IR the printer
renders — keyed by the source model's structural hash, the device and the
compiler options (:func:`repro.cache.keys.module_cache_key`). A warm
recompile is a JSON load plus object reconstruction: near-free, and provably
identical to the cold path (the differential suite in
``tests/test_cached_compile.py`` asserts byte-identical kernel IR and
identical simulated latency).

The functional program is *not* serialised: a cache-hit module materialises
it lazily by re-running the deterministic front half of the pipeline the
first time ``run()`` is called. Performance queries (``simulate``,
``render_kernels``) never pay that cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.cache.store import CacheStats, JsonStore
from repro.errors import ExecutionError
from repro.gpu.device import GPUSpec
from repro.gpu.kernel import KernelSpec
from repro.graph.te_program import TEProgram
from repro.te.tensor import Tensor
from repro.tir.build import BuiltKernel

from repro.tir.stmt import (
    AllocShared,
    ComputeStmt,
    GridSync,
    KernelFunction,
    LoadGlobal,
    Predicate,
    Stmt,
    StoreGlobal,
)

if TYPE_CHECKING:  # import would cycle through repro.runtime at runtime
    from repro.runtime.module import CompiledModule, CompileStats

MODULE_STORE_FORMAT = "repro-module-cache"
MODULE_STORE_VERSION = 1


# ---- statement (de)serialisation ---------------------------------------------


def _tensor_ref(tensor: Tensor) -> List[Any]:
    return [tensor.name, list(tensor.shape), tensor.dtype]


class _TensorPool:
    """Rebuilds tensors by name so shared references stay shared."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Tensor] = {}

    def resolve(self, ref: List[Any]) -> Tensor:
        name, shape, dtype = ref
        tensor = self._by_name.get(name)
        if tensor is None:
            tensor = Tensor(tuple(shape), dtype=dtype, name=name)
            self._by_name[name] = tensor
        return tensor


def _stmt_to_record(stmt: Stmt) -> Dict[str, Any]:
    if isinstance(stmt, AllocShared):
        return {"t": "alloc", "name": stmt.name, "nbytes": stmt.nbytes}
    if isinstance(stmt, LoadGlobal):
        return {
            "t": "load",
            "tensor": _tensor_ref(stmt.tensor),
            "nbytes": stmt.nbytes,
            "cached": stmt.cached,
        }
    if isinstance(stmt, StoreGlobal):
        return {
            "t": "store",
            "tensor": _tensor_ref(stmt.tensor),
            "nbytes": stmt.nbytes,
            "elided": stmt.elided,
        }
    if isinstance(stmt, ComputeStmt):
        return {
            "t": "compute",
            "te_name": stmt.te_name,
            "op_type": stmt.op_type,
            "flops": stmt.flops,
            "tensor_core": stmt.tensor_core,
            "atomic": stmt.atomic,
        }
    if isinstance(stmt, GridSync):
        return {"t": "sync"}
    if isinstance(stmt, Predicate):
        return {
            "t": "pred",
            "active_blocks": stmt.active_blocks,
            "body": [_stmt_to_record(s) for s in stmt.body],
        }
    raise ExecutionError(f"unserialisable statement {type(stmt).__name__}")


def _stmt_from_record(record: Dict[str, Any], pool: _TensorPool) -> Stmt:
    tag = record["t"]
    if tag == "alloc":
        return AllocShared(record["name"], record["nbytes"])
    if tag == "load":
        return LoadGlobal(
            pool.resolve(record["tensor"]), record["nbytes"], record["cached"]
        )
    if tag == "store":
        return StoreGlobal(
            pool.resolve(record["tensor"]), record["nbytes"], record["elided"]
        )
    if tag == "compute":
        return ComputeStmt(
            te_name=record["te_name"],
            op_type=record["op_type"],
            flops=record["flops"],
            tensor_core=record["tensor_core"],
            atomic=record["atomic"],
        )
    if tag == "sync":
        return GridSync()
    if tag == "pred":
        return Predicate(
            record["active_blocks"],
            [_stmt_from_record(s, pool) for s in record["body"]],
        )
    raise ExecutionError(f"unknown cached statement tag {tag!r}")


# ---- kernel / module (de)serialisation ---------------------------------------

_SPEC_FIELDS = (
    "name",
    "grid_blocks",
    "threads_per_block",
    "shared_mem_per_block",
    "regs_per_thread",
    "fp16_flops",
    "fp32_flops",
    "load_bytes",
    "store_bytes",
    "atomic_bytes",
    "grid_syncs",
    "pipelined",
    "compute_efficiency",
    "bandwidth_efficiency",
    "te_names",
    "source_ops",
)


def kernel_to_record(built: BuiltKernel) -> Dict[str, Any]:
    spec = built.spec
    function = built.function
    return {
        "spec": {name: getattr(spec, name) for name in _SPEC_FIELDS},
        "function": {
            "name": function.name,
            "params": [_tensor_ref(p) for p in function.params],
            "grid_blocks": function.grid_blocks,
            "threads_per_block": function.threads_per_block,
            "shared_mem_bytes": function.shared_mem_bytes,
            "stmts": [_stmt_to_record(s) for s in function.stmts],
        },
    }


def kernel_from_record(record: Dict[str, Any], pool: _TensorPool) -> BuiltKernel:
    spec = KernelSpec(**record["spec"])
    fn = record["function"]
    function = KernelFunction(
        name=fn["name"],
        params=[pool.resolve(p) for p in fn["params"]],
        grid_blocks=fn["grid_blocks"],
        threads_per_block=fn["threads_per_block"],
        shared_mem_bytes=fn["shared_mem_bytes"],
        stmts=[_stmt_from_record(s, pool) for s in fn["stmts"]],
    )
    # The access trace and reuse report are compile-time intermediates that
    # feed the subprogram optimiser; the cached artifact is post-optimisation,
    # so they are intentionally not persisted.
    return BuiltKernel(spec=spec, function=function)


def module_to_record(module: "CompiledModule") -> Dict[str, Any]:
    return {
        "name": module.name,
        "compiler": module.compiler,
        "device": module.device.name,
        "kernels": [kernel_to_record(k) for k in module.kernels],
    }


def module_from_record(
    record: Dict[str, Any],
    device: GPUSpec,
    stats: "CompileStats",
    program_loader: Optional[Callable[[], TEProgram]] = None,
) -> "CompiledModule":
    from repro.runtime.module import CompiledModule

    pool = _TensorPool()
    kernels = [kernel_from_record(k, pool) for k in record["kernels"]]
    return CompiledModule(
        name=record["name"],
        compiler=record["compiler"],
        program=None,
        kernels=kernels,
        device=device,
        stats=stats,
        program_loader=program_loader,
    )


class ModuleCache:
    """Persistent, content-addressed store of whole compiled modules."""

    def __init__(
        self, directory: Optional[str] = None, capacity: int = 64
    ) -> None:
        self._store = JsonStore(
            directory,
            format_name=MODULE_STORE_FORMAT,
            version=MODULE_STORE_VERSION,
            capacity=capacity,
        )

    @property
    def directory(self) -> Optional[str]:
        return self._store.directory

    @property
    def stats(self) -> CacheStats:
        return self._store.stats

    def load(
        self,
        key: str,
        device: GPUSpec,
        stats: "CompileStats",
        program_loader: Optional[Callable[[], TEProgram]] = None,
    ) -> Optional["CompiledModule"]:
        record = self._store.get(key)
        if record is None:
            return None
        try:
            return module_from_record(record, device, stats, program_loader)
        except (ExecutionError, KeyError, TypeError, ValueError):
            self._store.stats.load_errors += 1
            return None

    def store(self, key: str, module: "CompiledModule") -> None:
        self._store.put(key, module_to_record(module))
