"""The ``repro tune`` A/B harness: measure, re-plan, prove, then adopt.

Profile-guided optimization is only trustworthy end to end: a cost model
fitted to noisy measurements can steer the planner into a *legal but
slower* plan, so no tuned plan is ever adopted on the cost model's word
alone. :func:`tune` closes the loop with four gates, every one of which
must pass before a verdict says "adopted":

1. **Collect** — run the model through profile-collecting sessions under
   both the tiled and the untiled optimized plan, flushing per-step wall
   seconds into a :class:`~repro.runtime.profile_store.ProfileStore`.
   Both variants feed one bucket so the tiling pass can compare a chain's
   measured blocked cost against its measured *untiled* cost.
2. **Re-plan** — build the tuned plan with a
   :class:`~repro.runtime.cost_model.CostModel` over the collected rows.
   An empty store short-circuits here: planning is bit-for-bit static and
   there is nothing to A/B.
3. **Prove** — the tuned plan must produce bit-identical outputs to both
   the static optimized plan and an unoptimized serial replay on the same
   feeds, and every certificate from
   :func:`~repro.verify.equiv.certify_plan` must be PROVED. A mismatch or
   a non-proved certificate auto-rejects; speed never overrides safety.
4. **Time** — static and tuned plans are timed *interleaved* (A/B/B/A
   alternation, best-of-N): this machine's wall clock drifts by double-
   digit percentages between phases, so back-to-back blocks would measure
   the drift, not the plans. Adoption requires best-tuned to beat
   best-static by ``threshold``; anything less auto-rejects.

The verdict — adopted or not, why, and every measured number — persists
next to the profile rows (:meth:`ProfileStore.save_verdict`) so later
sessions and CI can assert what tuning decided without re-running it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.cache.keys import program_profile_key
from repro.errors import ExecutionError, PlanningError
from repro.graph.te_program import TEProgram
from repro.runtime.cost_model import CostModel
from repro.runtime.executor import ExecutionPlan
from repro.runtime.profile_store import ProfileStore, resolve_profile_store
from repro.runtime.session import InferenceSession

# Exploration runs per plan variant during collection. Three runs give the
# EMA a stable mean without making `repro tune` minutes long on the bigger
# tiny models.
DEFAULT_COLLECT_RUNS = 3

# Interleaved timing repetitions per engine. Best-of-9 is enough to punch
# through scheduler noise at tiny-model latencies (0.2ms..700ms).
DEFAULT_TIMING_REPS = 9


@dataclass
class TuneReport:
    """Everything one tuning run measured and decided."""

    model: str
    program_hash: str
    adopted: bool = False
    reason: str = ""
    runnable: bool = True
    threshold: float = 1.0
    speedup: float = 0.0
    static_seconds: float = 0.0      # best-of interleaved static latency
    tuned_seconds: float = 0.0       # best-of interleaved tuned latency
    timing_reps: int = 0
    bit_identical: bool = False
    certified: bool = False
    proved: int = 0
    refuted: int = 0
    unknown: int = 0
    rows: int = 0                    # profile rows backing the cost model
    samples: int = 0                 # samples flushed by the collect phase
    verdict_path: Optional[str] = None
    # Pass-pipeline stats of both plans (OptimizeStats), for rendering the
    # before/after comparison; not serialized into the verdict.
    static_stats: Optional[object] = field(default=None, repr=False)
    tuned_stats: Optional[object] = field(default=None, repr=False)

    def to_json(self) -> Dict[str, Any]:
        """The persisted verdict payload (scalars only, JSON-safe)."""
        return {
            "model": self.model,
            "program": self.program_hash,
            "adopted": self.adopted,
            "reason": self.reason,
            "runnable": self.runnable,
            "threshold": self.threshold,
            "speedup": round(self.speedup, 4),
            "static_seconds": self.static_seconds,
            "tuned_seconds": self.tuned_seconds,
            "timing_reps": self.timing_reps,
            "bit_identical": self.bit_identical,
            "certified": self.certified,
            "proved": self.proved,
            "refuted": self.refuted,
            "unknown": self.unknown,
            "rows": self.rows,
            "samples": self.samples,
        }

    def render(self) -> str:
        verdict = "ADOPTED" if self.adopted else "rejected"
        lines = [f"tune verdict: {verdict} — {self.reason}"]
        if self.timing_reps:
            lines.append(
                f"  static {self.static_seconds * 1e3:.3f} ms, "
                f"tuned {self.tuned_seconds * 1e3:.3f} ms "
                f"(best of {self.timing_reps}, interleaved) — "
                f"speedup {self.speedup:.2f}x (threshold "
                f"{self.threshold:.2f}x)"
            )
        lines.append(
            f"  bit-identical: {self.bit_identical}, certificates: "
            f"{self.proved} proved / {self.refuted} refuted / "
            f"{self.unknown} unknown"
        )
        lines.append(
            f"  profile: {self.samples} samples collected, "
            f"{self.rows} rows in bucket {self.program_hash[:12]}"
        )
        return "\n".join(lines)


def collect_profiles(
    program: TEProgram,
    store: ProfileStore,
    runs: int = DEFAULT_COLLECT_RUNS,
    seed: int = 0,
    feeds: Optional[Mapping[Any, np.ndarray]] = None,
    tile_budget: Optional[int] = None,
) -> int:
    """Exploration phase: measure the plan variants the tuner can choose.

    Runs profile-collecting sessions under the tiled *and* the untiled
    optimized plan — the tiled runs produce ``tiled@<block>`` variants
    keyed by chain, the untiled runs produce the fused/plain rows the
    tiling pass needs as its "what if I don't tile" comparison point.
    Returns the number of samples flushed into ``store``.
    """
    if feeds is None:
        from repro.transform.semantics import random_feeds

        feeds = random_feeds(program, seed=seed)
    total = 0
    for tile in (True, False):
        plan = ExecutionPlan(
            program, optimize=True, tile=tile, tile_budget=tile_budget,
        )
        session = InferenceSession(
            program, plan=plan,
            collect_profiles=True, profile_store=store,
        )
        for _ in range(max(1, runs)):
            session.run(feeds)
        total += session.flush_profiles()
    return total


def _bit_identical(
    got: List[np.ndarray], want: List[np.ndarray]
) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want)
    )


def _interleaved_best_of(run_static, run_tuned, reps: int):
    """Best-of-N latency for two engines, alternating A/B order per rep.

    Sequential blocks (all static, then all tuned) measure clock drift —
    this machine wanders ±double-digit percent between phases. Alternating
    which engine goes first inside every rep and taking each engine's
    minimum cancels the drift to first order.
    """
    best_static = best_tuned = float("inf")
    for rep in range(max(1, reps)):
        order = (
            (run_static, run_tuned) if rep % 2 == 0
            else (run_tuned, run_static)
        )
        for fn in order:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if fn is run_static:
                best_static = min(best_static, elapsed)
            else:
                best_tuned = min(best_tuned, elapsed)
    return best_static, best_tuned


def tune(
    program: TEProgram,
    name: Optional[str] = None,
    store: Optional[object] = None,
    runs: int = DEFAULT_COLLECT_RUNS,
    reps: int = DEFAULT_TIMING_REPS,
    threshold: float = 1.0,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    feeds: Optional[Mapping[Any, np.ndarray]] = None,
    tile_budget: Optional[int] = None,
) -> TuneReport:
    """Run the full measure → re-plan → prove → time → verdict loop.

    ``store`` accepts anything ``resolve_profile_store`` does (None
    honours ``$REPRO_CACHE_DIR``, a path roots the store there, ``False``
    keeps it in memory). ``cost_model`` injects a pre-built model and
    skips the collect phase — the hook the bad-model CI test uses to
    prove auto-reject fires; everything downstream of collection (the
    identity, certification and timing gates) still runs unchanged.
    ``tile_budget`` pins the cache budget for both engines (the knob that
    demonstrates measured recovery when the static footprint heuristic
    mispredicts).
    """
    resolved = resolve_profile_store(store)
    report = TuneReport(
        model=name or program.name,
        program_hash=program_profile_key(program),
        threshold=threshold,
    )

    if feeds is None:
        from repro.transform.semantics import random_feeds

        feeds = random_feeds(program, seed=seed)

    # Static plan first: it is both the baseline and the probe for whether
    # this program can execute functionally at all (paper-scale grids
    # exceed the evaluator's point budget and must report, not crash).
    try:
        static_plan = ExecutionPlan(
            program, optimize=True, tile_budget=tile_budget
        )
        static_session = InferenceSession(program, plan=static_plan)
        static_out = static_session.run(feeds)
    except (ExecutionError, PlanningError) as exc:
        report.runnable = False
        report.reason = f"not functionally executable: {exc}"
        report.verdict_path = resolved.save_verdict(
            report.program_hash, 1, report.to_json()
        )
        return report
    report.static_stats = static_session.plan.optimization.stats

    if cost_model is None:
        report.samples = collect_profiles(
            program, resolved, runs=runs, seed=seed, feeds=feeds,
            tile_budget=tile_budget,
        )
        cost_model = CostModel.from_store(resolved, report.program_hash, 1)
    report.rows = len(cost_model.rows)

    if not cost_model.has_measurements():
        # The optimizer nulls an empty model, so the "tuned" plan would be
        # the static plan — nothing to compare, nothing to adopt.
        report.reason = "no profile measurements; planning unchanged"
        report.bit_identical = True
        report.verdict_path = resolved.save_verdict(
            report.program_hash, 1, report.to_json()
        )
        return report

    try:
        tuned_plan = ExecutionPlan(
            program, optimize=True, tile_budget=tile_budget,
            cost_model=cost_model,
        )
        tuned_session = InferenceSession(program, plan=tuned_plan)
        tuned_out = tuned_session.run(feeds)
    except (ExecutionError, PlanningError) as exc:
        report.reason = f"auto-reject: tuned plan failed to execute ({exc})"
        report.verdict_path = resolved.save_verdict(
            report.program_hash, 1, report.to_json()
        )
        return report
    report.tuned_stats = tuned_session.plan.optimization.stats

    # Gate 1: bit-identity against the static plan and a serial replay of
    # the unoptimized lowering, on the same feeds.
    serial_session = InferenceSession(program, optimize=False)
    serial_out = serial_session.run(feeds)
    report.bit_identical = (
        _bit_identical(tuned_out, static_out)
        and _bit_identical(tuned_out, serial_out)
    )
    if not report.bit_identical:
        report.reason = (
            "auto-reject: tuned outputs diverge from the static plan or "
            "the serial replay"
        )
        report.verdict_path = resolved.save_verdict(
            report.program_hash, 1, report.to_json()
        )
        return report

    # Gate 2: every transform the tuned plan applied must carry a PROVED
    # equivalence certificate.
    from repro.verify.equiv import certify_plan

    certificates = certify_plan(tuned_session.plan)
    report.proved = len(certificates.proved)
    report.refuted = len(certificates.refuted)
    report.unknown = len(certificates.unknown)
    report.certified = certificates.all_proved
    if not report.certified:
        report.reason = (
            f"auto-reject: certification not clean "
            f"({report.refuted} refuted, {report.unknown} unknown)"
        )
        report.verdict_path = resolved.save_verdict(
            report.program_hash, 1, report.to_json()
        )
        return report

    # Gate 3: the tuned plan must actually be faster, measured interleaved.
    report.timing_reps = max(1, reps)
    report.static_seconds, report.tuned_seconds = _interleaved_best_of(
        lambda: static_session.run(feeds),
        lambda: tuned_session.run(feeds),
        report.timing_reps,
    )
    report.speedup = (
        report.static_seconds / report.tuned_seconds
        if report.tuned_seconds > 0 else 0.0
    )
    if report.speedup >= threshold:
        report.adopted = True
        report.reason = (
            f"tuned plan {report.speedup:.2f}x vs static "
            f"(>= {threshold:.2f}x threshold)"
        )
    else:
        report.reason = (
            f"auto-reject: tuned plan {report.speedup:.2f}x vs static "
            f"(< {threshold:.2f}x threshold)"
        )
    report.verdict_path = resolved.save_verdict(
        report.program_hash, 1, report.to_json()
    )
    return report
