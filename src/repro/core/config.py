"""Compiler options: the paper's cumulative optimisation levels (Table 4).

    V0  TVM + Ansor generated code (per-TE kernels with epilogue fusion)
    V1  + horizontal TE transformation          (Sec. 6.1)
    V2  + vertical TE transformation            (Sec. 6.2)
    V3  + global synchronisation / big kernels  (Sec. 5.4, 6.4)
    V4  + subprogram-level optimisation         (Sec. 6.5: pipeline + reuse)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SouffleOptions:
    """Feature toggles of the Souffle pipeline."""

    horizontal: bool = True
    vertical: bool = True
    global_sync: bool = True
    subprogram_opt: bool = True
    validate: bool = False  # differentially check every transformation
    verify: bool = False    # statically verify the IR at every pipeline stage
    # Serve through plan-optimized execution plans (runtime step fusion,
    # in-place elision, dependency-level step order).
    # Orthogonal to the V-levels: it rewrites the *runtime* step list, not
    # the TE IR.
    optimize_plans: bool = True
    # Block-level tiling of map->reduce->map chains (runtime.tiling):
    # cache-blocked sub-steps with per-worker scratch, applied by the plan
    # optimizer when profitable. On by default; only meaningful when
    # optimize_plans is on.
    tile_reductions: bool = True
    # Translation validation (verify.equiv): emit a symbolic equivalence
    # certificate per transform application and gate the compile on any
    # refuted certificate. ``certify_unknown`` picks what an *unknown*
    # verdict does: "warn" (default) renders a warning diagnostic, "fail"
    # aborts the compile like a refutation.
    certify: bool = False
    certify_unknown: str = "warn"

    @classmethod
    def from_level(cls, level: int, validate: bool = False,
                   verify: bool = False,
                   optimize_plans: bool = True,
                   tile_reductions: bool = True,
                   certify: bool = False,
                   certify_unknown: str = "warn") -> "SouffleOptions":
        """Build the Table-4 ablation configuration V<level>."""
        if not 0 <= level <= 4:
            raise ValueError(f"optimisation level must be 0..4, got {level}")
        return cls(
            horizontal=level >= 1,
            vertical=level >= 2,
            global_sync=level >= 3,
            subprogram_opt=level >= 4,
            validate=validate,
            verify=verify,
            optimize_plans=optimize_plans,
            tile_reductions=tile_reductions,
            certify=certify,
            certify_unknown=certify_unknown,
        )

    @property
    def level_name(self) -> str:
        level = (
            int(self.horizontal)
            + int(self.vertical)
            + int(self.global_sync)
            + int(self.subprogram_opt)
        )
        return f"V{level}"
