"""Static verification of TE programs, memory plans and built kernels.

Souffle's premise is that whole-program *static* analysis is what makes
aggressive cross-operator optimisation trustworthy (paper Sec. 5). This
package is the correctness half of that bargain: a multi-pass verifier with
structured diagnostics that runs long before any differential test —

* ``wellformed``   — use-before-def, dangling reads, cycles, duplicates,
  dead TEs, never-read placeholders;
* ``shape-dtype``  — bottom-up shape/dtype re-inference cross-checked
  against declarations;
* ``bounds``       — interval analysis over quasi-affine read maps and
  ``if_then_else`` predicates proving every tensor read in-bounds;
* ``arena-hazard`` — a static race detector over the execution plan's
  packed arena (WAR/WAW/aliasing, liveness drift);
* ``sync-safety``  — grid.sync() deadlock-freedom (one-wave occupancy) and
  producer/consumer stage ordering inside merged kernels.

Entry points: :func:`verify_program`, :func:`verify_plan`,
:func:`verify_module`, and the ``repro lint`` CLI subcommand.
"""

from repro.verify.bounds import check_bounds
from repro.verify.diagnostics import (
    ALL_PASSES,
    Diagnostic,
    Location,
    PASS_ARENA_HAZARD,
    PASS_BOUNDS,
    PASS_EQUIVALENCE,
    PASS_SHAPE_DTYPE,
    PASS_SYNC_SAFETY,
    PASS_WELLFORMED,
    Severity,
    VerifyReport,
)
from repro.verify.equiv import (
    CertificationReport,
    Counterexample,
    EquivalenceCertificate,
    certify_batched_binding,
    certify_batched_lowering,
    certify_model,
    certify_plan,
    certify_plan_optimization,
    certify_te_transform,
    gate_certificates,
    replay_certificate,
)
from repro.verify.hazards import check_arena
from repro.verify.shape_dtype import check_shape_dtype, infer_dtype
from repro.verify.sync import check_sync
from repro.verify.verifier import (
    assert_verified,
    verify_kernels_or_raise,
    verify_module,
    verify_plan,
    verify_program,
)
from repro.verify.view import ProgramView, as_view
from repro.verify.wellformed import check_wellformed

__all__ = [
    "ALL_PASSES",
    "CertificationReport",
    "Counterexample",
    "Diagnostic",
    "EquivalenceCertificate",
    "Location",
    "PASS_ARENA_HAZARD",
    "PASS_BOUNDS",
    "PASS_EQUIVALENCE",
    "PASS_SHAPE_DTYPE",
    "PASS_SYNC_SAFETY",
    "PASS_WELLFORMED",
    "ProgramView",
    "Severity",
    "VerifyReport",
    "as_view",
    "assert_verified",
    "certify_batched_binding",
    "certify_batched_lowering",
    "certify_model",
    "certify_plan",
    "certify_plan_optimization",
    "certify_te_transform",
    "check_arena",
    "check_bounds",
    "gate_certificates",
    "replay_certificate",
    "check_shape_dtype",
    "check_sync",
    "check_wellformed",
    "infer_dtype",
    "verify_kernels_or_raise",
    "verify_module",
    "verify_plan",
    "verify_program",
]
