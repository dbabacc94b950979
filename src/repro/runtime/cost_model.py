"""Measured-first cost model: what the plan optimizer consults when tuned.

One instance wraps the profile rows of a single ``(program, shape bucket)``
store bucket and answers every question the optimizer previously settled
with constants:

* ``estimate(step)`` — seconds for one step: the EMA-measured time when a
  profile row exists for the step's durable key, else a linear
  ``c0 + c_b*bytes + c_f*flops`` model fitted (least squares) to whatever
  rows *do* exist for this machine, else conservative defaults;
* ``fusion_profitable`` / ``duplication_profitable`` — whether inlining a
  map into its consumer(s) pays for the recompute with saved dispatch and
  materialisation, using the fitted dispatch intercept and byte rate;
* ``prefer_matmul`` — measured einsum-vs-matmul verdict per step key;
* ``tiled_variants`` — measured per-block seconds by block size for one
  chain key.

Every answer degrades to ``None``/static behaviour when no measurement
covers the question: an empty store yields a model with
``has_measurements() == False`` and the optimizer never calls it, keeping
untuned planning bit-for-bit identical to today.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.runtime.profile_store import ProfileRow, ProfileStore

# Fallback coefficients when too few rows exist to fit: a few microseconds
# of python dispatch per step, ~10 GB/s effective memory traffic, ~1 Gop/s
# effective scalar throughput. Only consulted for steps with no measured
# row, inside plans that *do* have measurements elsewhere.
DEFAULT_DISPATCH_SECONDS = 3e-6
DEFAULT_BYTE_SECONDS = 1e-10
DEFAULT_FLOP_SECONDS = 1e-9


class CostModel:
    """Per-bucket measured cost model (see module docstring)."""

    def __init__(self, rows: Dict[str, ProfileRow], lanes: int = 1) -> None:
        self.rows = dict(rows)
        self.lanes = max(1, int(lanes))
        self._coef = self._fit()

    @classmethod
    def from_store(
        cls, store: ProfileStore, program_hash: str, lanes: int = 1
    ) -> "CostModel":
        return cls(store.load(program_hash, lanes), lanes=lanes)

    # ---- measured lookups ---------------------------------------------------

    def has_measurements(self) -> bool:
        return bool(self.rows)

    def measured_seconds(
        self, step_key: str, kind: Optional[str] = None
    ) -> Optional[float]:
        """EMA seconds per call for one step key.

        Prefers the variant matching ``kind``; otherwise the fastest
        measured variant stands in (the closest available truth).
        """
        row = self.rows.get(step_key)
        if row is None or not row.variants:
            return None
        if kind is not None:
            exact = row.variants.get(kind)
            if exact is not None:
                return exact.seconds
        return min(v.seconds for v in row.variants.values())

    def estimate(self, step) -> float:
        """Seconds for one plan step: measured-first, fitted fallback."""
        measured = self.measured_seconds(
            getattr(step, "step_key", ""), getattr(step, "kind", None)
        )
        if measured is not None:
            return measured
        bytes_, flops = getattr(step, "cost_features", (0, 0))
        return self.estimate_features(bytes_ * self.lanes, flops * self.lanes)

    def estimate_features(self, bytes_: float, flops: float) -> float:
        c0, cb, cf = self._coef
        return max(c0 + cb * float(bytes_) + cf * float(flops), 1e-9)

    def dispatch_overhead_s(self) -> float:
        """Fitted per-step dispatch cost (the linear model's intercept)."""
        return self._coef[0]

    # ---- optimizer decisions ------------------------------------------------

    def fusion_profitable(
        self,
        producer_key: str,
        consumer_key: str,
        fused_key: Optional[str] = None,
    ) -> bool:
        """Inline a single-consumer map into its consumer?

        Fusion deletes one step dispatch and one arena materialisation
        while leaving compute unchanged (the interior is composed lazily),
        so it pays exactly when the producer is dispatch-bound. With a
        measured fused row from a previous tuned run, the direct
        comparison wins instead.
        """
        mp = self.measured_seconds(producer_key)
        mc = self.measured_seconds(consumer_key)
        if fused_key is not None:
            mf = self.measured_seconds(fused_key, "fused")
            if mf is not None and mp is not None and mc is not None:
                return mf <= mp + mc
        if mp is None:
            return False
        return mp <= self.dispatch_bound_cutoff_s()

    def duplication_profitable(
        self, producer_key: str, out_bytes: int, consumers: int
    ) -> bool:
        """Inline a multi-consumer map into *every* consumer?

        Duplication recomputes the producer ``consumers`` times and deletes
        its dispatch and its materialised output. A recomputed interior is
        *not* free of the producer's fixed numpy-call overhead — each
        consumer group re-evaluates the full value closure, plus pays the
        broadcast/contiguity machinery — so the honest model
        charges the full measured step time per extra evaluation and
        credits only the elided arena-write traffic. That only pays when
        the producer's output is large relative to its compute (wide
        broadcast-shaped maps); dispatch-bound tiny steps never qualify.
        """
        mp = self.measured_seconds(producer_key)
        if mp is None:
            return False
        # Credit only the elided arena write — and at a *conservative*
        # byte rate: on small programs the least-squares design is
        # degenerate and the fitted byte coefficient absorbs per-step
        # overhead (observed 100x+ inflation), which would green-light
        # duplications that measure as regressions. The fitted intercept
        # is not a deletable cost either: each interior re-pays the
        # producer's fixed numpy overhead, and the broadcast machinery
        # eats whatever loop dispatch the deleted step saved.
        rate = min(self._coef[1], DEFAULT_BYTE_SECONDS)
        write = rate * float(out_bytes) * self.lanes
        extra = (consumers - 1) * mp
        return extra < write

    def dispatch_bound_cutoff_s(self) -> float:
        """A step measured at or below this is dominated by dispatch."""
        return max(8.0 * self.dispatch_overhead_s(), 2e-5)

    def prefer_matmul(self, step_key: str) -> Optional[bool]:
        """Measured einsum-vs-matmul verdict, None without both variants."""
        row = self.rows.get(step_key)
        if row is None:
            return None
        einsum = row.variants.get("einsum")
        matmul = row.variants.get("matmul")
        if einsum is None or matmul is None:
            return None
        return matmul.seconds <= einsum.seconds

    def tiled_variants(self, chain_key: str) -> Dict[int, float]:
        """Measured per-block seconds by block size for one chain key."""
        row = self.rows.get(chain_key)
        if row is None:
            return {}
        return {
            v.block_rows: v.seconds
            for v in row.variants.values()
            if v.block_rows > 0
        }

    # ---- fitting ------------------------------------------------------------

    def _fit(self) -> Tuple[float, float, float]:
        """Least-squares ``seconds ~ c0 + cb*bytes + cf*flops`` over rows."""
        samples = [
            (v.bytes, v.flops, v.seconds)
            for row in self.rows.values()
            for v in row.variants.values()
            if v.seconds > 0.0
        ]
        default = (
            DEFAULT_DISPATCH_SECONDS, DEFAULT_BYTE_SECONDS,
            DEFAULT_FLOP_SECONDS,
        )
        if len(samples) < 4:
            if samples:
                floor = min(s for _, _, s in samples)
                c0 = min(max(0.5 * floor, 5e-7), 2e-5)
                return (c0, DEFAULT_BYTE_SECONDS, DEFAULT_FLOP_SECONDS)
            return default
        a = np.array(
            [[1.0, float(b), float(f)] for b, f, _ in samples], dtype=np.float64
        )
        y = np.array([s for _, _, s in samples], dtype=np.float64)
        try:
            coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
        except np.linalg.LinAlgError:
            return default
        c0, cb, cf = (float(c) for c in coef)
        if not np.isfinite([c0, cb, cf]).all():
            return default
        # A degenerate design (all steps similar size) can push the
        # intercept negative or the rates below zero; clamp into the
        # physically meaningful range instead of trusting extrapolation.
        floor = min(s for _, _, s in samples)
        c0 = min(max(c0, 5e-7), max(floor, 5e-7))
        cb = max(cb, 0.0) or DEFAULT_BYTE_SECONDS
        cf = max(cf, 0.0) or DEFAULT_FLOP_SECONDS
        return (c0, cb, cf)

    def __repr__(self) -> str:
        c0, cb, cf = self._coef
        return (
            f"<CostModel rows={len(self.rows)} lanes={self.lanes} "
            f"c0={c0:.2e} cb={cb:.2e} cf={cf:.2e}>"
        )
