"""Compiled modules: the artifact every compiler in this repo produces.

A :class:`CompiledModule` bundles the final TE program (functional
semantics), the built kernels (performance semantics) and the device model.
``run`` executes functionally with numpy; ``simulate`` produces the
performance counters the paper reports.

Modules restored from the persistent compile cache carry a *program loader*
instead of an eager program: performance queries never re-run the pipeline,
while the first functional ``run()`` transparently materialises the TE
program by replaying the deterministic front half of the compile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.gpu.device import GPUSpec
from repro.gpu.simulator import GPUSimulator, ModuleMetrics
from repro.graph.te_program import TEProgram
from repro.te.evaluator import Evaluator
from repro.te.tensor import Tensor
from repro.tir.build import BuiltKernel


@dataclass
class CompileStats:
    """Wall-clock breakdown of one compilation (paper Sec. 8.5).

    Beyond the per-phase split the paper reports, this records the compile
    observability the cache subsystem exposes: per-subprogram build times,
    schedule-cache hit rates and whether the whole module came from the
    artifact cache.
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    schedule_trials: int = 0
    subprogram_seconds: Dict[str, float] = field(default_factory=dict)
    schedule_cache_hits: int = 0
    schedule_cache_misses: int = 0
    module_cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def schedule_cache_lookups(self) -> int:
        return self.schedule_cache_hits + self.schedule_cache_misses

    @property
    def schedule_cache_hit_rate(self) -> float:
        lookups = self.schedule_cache_lookups
        return self.schedule_cache_hits / lookups if lookups else 0.0

    def record(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def record_subprogram(self, name: str, seconds: float) -> None:
        """Per-subprogram wall time."""
        self.subprogram_seconds[name] = seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-able view, consumed by the ``compile-stats`` CLI command."""
        return {
            "total_seconds": self.total_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "subprogram_seconds": dict(self.subprogram_seconds),
            "schedule_trials": self.schedule_trials,
            "schedule_cache_hits": self.schedule_cache_hits,
            "schedule_cache_misses": self.schedule_cache_misses,
            "schedule_cache_hit_rate": self.schedule_cache_hit_rate,
            "module_cache_hit": self.module_cache_hit,
        }


class PhaseTimer:
    """Context manager recording a phase duration into :class:`CompileStats`.

    With ``subprogram`` set, the duration is additionally recorded as that
    subprogram's build time.
    """

    def __init__(
        self, stats: CompileStats, phase: str, subprogram: Optional[str] = None
    ) -> None:
        self._stats = stats
        self._phase = phase
        self._subprogram = subprogram
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        self._stats.record(self._phase, elapsed)
        if self._subprogram is not None:
            self._stats.record_subprogram(self._subprogram, elapsed)


class CompiledModule:
    """The executable+measurable result of compiling one model."""

    def __init__(
        self,
        name: str,
        compiler: str,
        program: Optional[TEProgram],
        kernels: Sequence[BuiltKernel],
        device: GPUSpec,
        stats: Optional[CompileStats] = None,
        program_loader: Optional[Callable[[], TEProgram]] = None,
        certificates: Sequence = (),
    ) -> None:
        self.name = name
        self.compiler = compiler
        self.kernels: List[BuiltKernel] = list(kernels)
        self.device = device
        self.stats = stats if stats is not None else CompileStats()
        self._program = program
        self._program_loader = program_loader
        # Equivalence certificates from the compile's certification gates
        # (SouffleOptions.certify; empty when certification was off). On a
        # warm compile these are replayed from the certificate tier of the
        # compile cache rather than re-proved.
        self.certificates: List = list(certificates)
        self._session: Optional["InferenceSession"] = None

    # ---- program materialisation ---------------------------------------------

    @property
    def program(self) -> TEProgram:
        if self._program is None:
            if self._program_loader is None:
                raise ExecutionError(
                    f"module {self.name} has no TE program and no loader"
                )
            self._program = self._program_loader()
        return self._program

    @program.setter
    def program(self, value: TEProgram) -> None:
        self._program = value
        self._session = None  # plans are specialized to one program

    @property
    def has_program(self) -> bool:
        """Whether the TE program is already materialised."""
        return self._program is not None

    # ---- performance ---------------------------------------------------------

    def simulate(self) -> ModuleMetrics:
        """Run the analytic performance model over all kernels."""
        simulator = GPUSimulator(self.device)
        return simulator.run_module([k.spec for k in self.kernels])

    @property
    def kernel_calls(self) -> int:
        return len(self.kernels)

    # ---- functional execution ---------------------------------------------------

    @property
    def session(self) -> "InferenceSession":
        """The module's serving session (plan built lazily, then reused).

        Every :meth:`run` call replays this session's execution plan against
        its pooled arena — the per-request cost is a flat step loop, not an
        expression-tree walk.
        """
        if self._session is None:
            # Imported here: the session module is runtime-internal and this
            # keeps module import light for performance-only consumers.
            from repro.runtime.session import InferenceSession

            self._session = InferenceSession(self.program, name=self.name)
        return self._session

    def run(self, feeds: Mapping[Tensor, np.ndarray]) -> List[np.ndarray]:
        """Execute the module functionally; returns outputs in program order.

        Uses the plan-based execution engine. :meth:`run_interpreted` is the
        slow interpretive path kept as the differential-testing oracle.
        """
        return self.session.run(feeds)

    def run_interpreted(
        self, feeds: Mapping[Tensor, np.ndarray]
    ) -> List[np.ndarray]:
        """Reference execution via a fresh tree-walking :class:`Evaluator`.

        Nodes are evaluated in program order, so every producer is
        memoised before its consumer asks for it: reading the outputs
        first would recurse once per producer along the longest chain,
        past Python's recursion limit on deep models (paper-scale
        ResNeXt-101).
        """
        evaluator = Evaluator(feeds)
        for node in self.program.nodes:
            evaluator.value_of(node.tensor)
        return [evaluator.value_of(out) for out in self.program.outputs]

    def run_by_name(self, feeds: Mapping[str, np.ndarray]) -> List[np.ndarray]:
        """Like :meth:`run` but feeds are keyed by placeholder name."""
        return self.session.run_by_name(feeds)

    def run_batch(
        self, feeds_list: Sequence[Mapping[Tensor, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Execute several requests through one batched plan replay.

        Outputs per request are bit-identical to :meth:`run` on the same
        feeds; see :class:`~repro.runtime.executor.BatchedExecutionPlan`.
        """
        return self.session.run_batch(feeds_list)

    def run_batch_by_name(
        self, feeds_list: Sequence[Mapping[str, np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Like :meth:`run_batch` with name-keyed feeds."""
        return self.session.run_batch_by_name(feeds_list)

    def serve(self, max_batch_size: int = 8, max_queue_delay_ms: float = 2.0):
        """A started :class:`~repro.runtime.batching.BatchingServer` over
        this module's session."""
        return self.session.serve(
            max_batch_size=max_batch_size,
            max_queue_delay_ms=max_queue_delay_ms,
        )

    # ---- inspection -----------------------------------------------------------

    def render_kernels(self, limit: Optional[int] = None) -> str:
        """Pseudo-CUDA of the generated kernels."""
        chunks = []
        for built in self.kernels[: limit or len(self.kernels)]:
            chunks.append(built.function.render())
        return "\n\n".join(chunks)

    def __repr__(self) -> str:
        return (
            f"<CompiledModule {self.name} by {self.compiler}: "
            f"{len(self.kernels)} kernels>"
        )
