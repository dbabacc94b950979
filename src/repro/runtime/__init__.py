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
    SchedulerStats,
    StepTiming,
    profile_module,
)
from repro.runtime.session import InferenceSession
from repro.runtime.task_graph import (
    AdversarialScheduler,
    FifoScheduler,
    GraphExecutor,
    ScriptedScheduler,
    Task,
    TaskGraph,
    TaskGraphStats,
    ThreadedScheduler,
    build_task_graph,
    optimization_task_graph,
    random_topological_order,
)

__all__ = [
    "AdversarialScheduler",
    "Arena",
    "BatchStats",
    "BatchedExecutionPlan",
    "BatchingServer",
    "CompileStats",
    "CompiledModule",
    "DispatchRecord",
    "ExecutionPlan",
    "ExecutionProfile",
    "FifoScheduler",
    "GraphExecutor",
    "InferenceSession",
    "KernelProfile",
    "MemoryPlan",
    "PhaseTimer",
    "PlanStep",
    "ProfileReport",
    "SchedulerStats",
    "ScriptedScheduler",
    "StepTiming",
    "ShapeDispatcher",
    "Task",
    "TaskGraph",
    "TaskGraphStats",
    "ThreadedScheduler",
    "build_task_graph",
    "optimization_task_graph",
    "plan_memory",
    "profile_module",
    "random_topological_order",
]
