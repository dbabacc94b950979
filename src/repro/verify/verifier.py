"""Multi-pass verifier orchestration.

Three entry points at three layers of the system:

* :func:`verify_program` — the pure-TE passes (well-formedness, shape/dtype,
  bounds) over a :class:`~repro.graph.te_program.TEProgram` or lenient
  :class:`~repro.verify.view.ProgramView`. Run by ``SouffleCompiler`` after
  lowering and after each transform stage when ``verify`` is enabled.
* :func:`verify_plan` — the arena-hazard pass over a program + memory plan.
  Run by :class:`~repro.runtime.executor.ExecutionPlan` at plan time.
* :func:`verify_module` — everything, including sync safety over the built
  kernels. The ``repro lint`` driver.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.errors import VerificationError
from repro.runtime.memory_planner import MemoryPlan
from repro.te.tensor import Tensor
from repro.verify.bounds import check_bounds
from repro.verify.diagnostics import (
    PASS_ARENA_HAZARD,
    PASS_BOUNDS,
    PASS_SHAPE_DTYPE,
    PASS_SYNC_SAFETY,
    PASS_WELLFORMED,
    Severity,
    VerifyReport,
)
from repro.verify.hazards import check_arena
from repro.verify.shape_dtype import check_shape_dtype
from repro.verify.sync import check_sync
from repro.verify.view import ProgramLike, as_view
from repro.verify.wellformed import check_wellformed


def verify_program(program: ProgramLike,
                   subject: Optional[str] = None) -> VerifyReport:
    """Run the three TE-level passes over one program."""
    view = as_view(program)
    report = VerifyReport(subject=subject or view.name)
    report.passes_run = [PASS_WELLFORMED, PASS_SHAPE_DTYPE, PASS_BOUNDS]
    report.extend(check_wellformed(view))
    report.extend(check_shape_dtype(view))
    report.extend(check_bounds(view))
    return report


def verify_plan(
    program: ProgramLike,
    plan: MemoryPlan,
    sizer: Optional[Callable[[Tensor], int]] = None,
    require_exclusive_writes: bool = True,
    subject: Optional[str] = None,
    inplace: Optional[Iterable[Tuple[int, int]]] = None,
) -> VerifyReport:
    """Run the arena-hazard pass for one program + memory plan.

    ``inplace`` allowlists deliberate (writer, operand) in-place pairs —
    see :func:`repro.verify.hazards.check_arena`.
    """
    view = as_view(program)
    report = VerifyReport(subject=subject or view.name)
    report.passes_run = [PASS_ARENA_HAZARD]
    report.extend(check_arena(
        view, plan, sizer=sizer,
        require_exclusive_writes=require_exclusive_writes,
        inplace=inplace,
    ))
    return report


def verify_module(module, plan_hazards: bool = True) -> VerifyReport:
    """Verify a compiled module end to end (the ``repro lint`` driver).

    Runs the program passes, the sync-safety pass over the built kernels,
    and — with ``plan_hazards`` — plans the serving arena for the final
    program and runs the hazard pass over it, then repeats the hazard pass
    over the *plan-optimizer's* rewritten step list and repacked arena
    (fusion, elision, level ordering), with the optimizer's deliberate
    in-place pairs allowlisted. Planning here is static (no grids are
    materialised), so paper-scale models lint fine.
    """
    from repro.runtime.memory_planner import plan_memory

    program = module.program
    report = verify_program(program, subject=module.name)
    report.passes_run.append(PASS_SYNC_SAFETY)
    report.extend(check_sync(module.kernels, module.device, program))
    if plan_hazards and report.clean:
        plan = plan_memory(program, exclusive_writes=True)
        report.merge(verify_plan(program, plan, subject=module.name))
        if report.clean:
            # Imported lazily: plan_opt sits above the runtime layer and
            # itself imports the verifier.
            from repro.runtime.plan_opt import plan_optimization

            opt = plan_optimization(program)
            report.merge(verify_plan(
                opt.step_view,
                opt.memory_plan,
                inplace=opt.inplace_pairs,
                subject=f"{module.name} (optimized plan)",
            ))
    else:
        report.passes_run.append(PASS_ARENA_HAZARD)
    return report


def assert_verified(program: ProgramLike, stage: str) -> VerifyReport:
    """Raise :class:`VerificationError` if the program has verifier errors.

    The compiler's fast static gate: called after lowering and after each
    transform stage when ``SouffleOptions.verify`` is set.
    """
    report = verify_program(program)
    if report.has_errors:
        raise VerificationError(
            f"verifier found {len(report.errors)} error(s) after {stage}:\n"
            + report.render(min_severity=Severity.ERROR)
        )
    return report


def verify_kernels_or_raise(kernels: Sequence, device,
                            program: ProgramLike) -> None:
    """Sync-safety gate over built kernels (compiler ``verify`` mode)."""
    diags = check_sync(kernels, device, program)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        raise VerificationError(
            f"sync-safety verification failed ({len(errors)} error(s)):\n"
            + "\n".join(d.render() for d in errors)
        )
