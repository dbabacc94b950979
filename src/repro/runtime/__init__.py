"""Runtime: compiled modules, plan-based execution, serving and profiling."""

from repro.runtime.batching import BatchingServer
from repro.runtime.dispatch import DispatchRecord, ShapeDispatcher
from repro.runtime.executor import (
    Arena,
    BatchedExecutionPlan,
    ExecutionPlan,
    PlanStep,
)
from repro.runtime.memory_planner import MemoryPlan, plan_memory
from repro.runtime.module import CompiledModule, CompileStats, PhaseTimer
from repro.runtime.profiler import (
    BatchStats,
    ExecutionProfile,
    KernelProfile,
    ProfileReport,
    StepTiming,
    profile_module,
)
from repro.runtime.session import InferenceSession

__all__ = [
    "Arena",
    "BatchStats",
    "BatchedExecutionPlan",
    "BatchingServer",
    "CompileStats",
    "CompiledModule",
    "DispatchRecord",
    "ExecutionPlan",
    "ExecutionProfile",
    "InferenceSession",
    "KernelProfile",
    "MemoryPlan",
    "PhaseTimer",
    "PlanStep",
    "ProfileReport",
    "StepTiming",
    "ShapeDispatcher",
    "plan_memory",
    "profile_module",
]
