"""The Souffle compiler: the paper's primary contribution, end to end.

Pipeline (Fig. 2):

    1. TE lowering                      (repro.graph.lowering)
    2. global computation-graph analysis (repro.analysis)
    3. resource-aware partitioning       (repro.analysis.partition)
    4. semantic-preserving TE transforms (repro.transform)
    5. joint optimisation + codegen      (repro.tir) -> merged kernels

The implementation runs the TE transformations before partitioning: both
orders produce the same kernels here because partition boundaries anchor on
compute-intensive TEs, which the transformations never dissolve; doing the
transforms first lets partitioning see the cleaned program (fewer TEs, the
merged horizontal contractions) and keeps each pass whole-program.

Compile acceleration (``repro.cache``): a persistent two-tier cache makes
repeat compilation near-free (per-TE schedules, then whole modules). It is
provably inert — the differential suite asserts cold, warm and
schedule-tier compiles emit byte-identical kernels.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Union

from repro.analysis.characterize import characterize_program
from repro.analysis.partition import Partitioner
from repro.cache import (
    CompileCache,
    module_cache_key,
    resolve_compile_cache,
)
from repro.core.config import SouffleOptions
from repro.core.grouping import ANSOR_RULES, epilogue_groups
from repro.gpu.device import GPUSpec, a100_40gb
from repro.graph.graph import Graph
from repro.graph.lowering import lower_graph
from repro.graph.te_program import TEProgram
from repro.runtime.module import CompiledModule, CompileStats, PhaseTimer
from repro.schedule.ansor import AnsorScheduler
from repro.tir.build import BuiltKernel, build_kernel
from repro.tir.pipeline import apply_pipeline
from repro.tir.reuse_cache import apply_reuse, cache_capacity_bytes
from repro.transform.horizontal import horizontal_transform
from repro.transform.semantics import assert_equivalent
from repro.transform.vertical import vertical_transform
from repro.verify import assert_verified, verify_kernels_or_raise
from repro.verify.equiv import (
    EquivalenceCertificate,
    certify_te_transform,
    gate_certificates,
)


class SouffleCompiler:
    """Top-down DNN inference compiler over tensor expressions.

    ``cache`` accepts ``None`` (honour ``$REPRO_CACHE_DIR``), ``False``
    (never cache), a directory path, or a :class:`repro.cache.CompileCache`.
    """

    name = "souffle"

    def __init__(
        self,
        device: Optional[GPUSpec] = None,
        options: Optional[SouffleOptions] = None,
        scheduler_factory=AnsorScheduler,
        cache=None,
    ) -> None:
        self.device = device or a100_40gb()
        self.options = options or SouffleOptions()
        # The schedule oracle is pluggable (paper Sec. 8.5: "can be reduced
        # by using faster optimizer like Roller, which is orthogonal").
        self.scheduler_factory = scheduler_factory
        self.cache: Optional[CompileCache] = resolve_compile_cache(cache)

    # ---- pipeline front half -------------------------------------------------

    def _front_half(
        self,
        model: Union[Graph, TEProgram],
        stats: CompileStats,
        certificates: Optional[List[EquivalenceCertificate]] = None,
    ) -> TEProgram:
        """Lowering + semantic-preserving TE transformations (Sec. 6).

        Each transformation is differentially validated against its own
        input, so the validation chain covers the whole pipeline without
        re-checking any pair twice: original == horizontal(original) and
        horizontal(original) == vertical(horizontal(original)) together pin
        original == final by transitivity. With ``options.certify`` the
        same chain is discharged *statically*: every transform application
        emits equivalence certificates (collected into ``certificates``)
        and a refutation aborts the compile at the offending stage.
        """
        options = self.options

        def certify(before: TEProgram, after: TEProgram, name: str) -> None:
            if not options.certify or certificates is None:
                return
            with PhaseTimer(stats, "certify"):
                certificate = certify_te_transform(before, after, name)
            certificates.append(certificate)
            gate_certificates(
                [certificate], f"{name}_transform", options.certify_unknown
            )

        with PhaseTimer(stats, "lowering"):
            program = lower_graph(model) if isinstance(model, Graph) else model
        if options.verify:
            assert_verified(program, "lowering")

        if options.horizontal:
            before = program
            with PhaseTimer(stats, "horizontal_transform"):
                program, _ = horizontal_transform(program)
            if options.validate:
                assert_equivalent(before, program)
            if options.verify:
                assert_verified(program, "horizontal_transform")
            certify(before, program, "horizontal")
        if options.vertical:
            before = program
            with PhaseTimer(stats, "vertical_transform"):
                program, _ = vertical_transform(program)
            if options.validate:
                assert_equivalent(before, program)
            if options.verify:
                assert_verified(program, "vertical_transform")
            certify(before, program, "vertical")
        return program

    # ---- cache plumbing ------------------------------------------------------

    def _module_key(self, model: Union[Graph, TEProgram]) -> Optional[str]:
        scheduler_name = getattr(
            self.scheduler_factory, "__name__", repr(self.scheduler_factory)
        )
        try:
            return module_cache_key(
                model, self.device, self.options, scheduler_name
            )
        except Exception:
            # An unhashable model only loses caching, never the compile.
            return None

    def _load_cached_module(
        self, key: str, model: Union[Graph, TEProgram], stats: CompileStats
    ) -> Optional[CompiledModule]:
        assert self.cache is not None and self.cache.modules is not None

        def materialise_program() -> TEProgram:
            return self._front_half(model, CompileStats())

        with PhaseTimer(stats, "cache_load"):
            module = self.cache.modules.load(
                key, self.device, stats, program_loader=materialise_program
            )
        if module is not None:
            stats.module_cache_hit = True
        return module

    # ---- compilation ---------------------------------------------------------

    def compile(self, model: Union[Graph, TEProgram]) -> CompiledModule:
        """Compile a model graph (or pre-lowered TE program) to kernels."""
        stats = CompileStats()
        options = self.options
        cache = self.cache

        mkey: Optional[str] = None
        if cache is not None and cache.modules is not None:
            mkey = self._module_key(model)
            if mkey is not None:
                module = self._load_cached_module(mkey, model, stats)
                if module is not None:
                    if not options.certify:
                        return module
                    # Certified warm path: replay the certificates from the
                    # cache tier (same content-addressed key as the module).
                    # No cached certificates -> fall through to a full
                    # certify-and-store compile; a certified compile never
                    # silently returns an uncertified module.
                    cached_certs = (
                        cache.certificates.load(mkey)
                        if cache.certificates is not None
                        else None
                    )
                    if cached_certs is not None:
                        gate_certificates(
                            cached_certs, "cache_load",
                            options.certify_unknown,
                        )
                        module.certificates = cached_certs
                        return module
                    stats.module_cache_hit = False

        certificates: List[EquivalenceCertificate] = []

        # ---- lowering + semantic-preserving TE transformations (Sec. 6) -----
        program = self._front_half(model, stats, certificates)

        # ---- global analysis (Sec. 5) ----------------------------------------
        with PhaseTimer(stats, "analysis"):
            chars = characterize_program(program)

        scheduler = self.scheduler_factory(self.device)
        schedule_snapshot: Dict[str, int] = {}
        if cache is not None and cache.schedules is not None and hasattr(
            scheduler, "attach_cache"
        ):
            scheduler.attach_cache(
                cache.schedules, options_token=options.level_name
            )
            schedule_snapshot = cache.schedules.stats.snapshot()

        # ---- partitioning / grouping -------------------------------------------
        with PhaseTimer(stats, "partitioning"):
            if options.global_sync:
                partitioner = Partitioner(self.device, scheduler)
                partition = partitioner.partition(program, chars)
                groups = [sp.nodes for sp in partition.subprograms]
                schedules = dict(partition.schedules)
            else:
                groups = epilogue_groups(program, chars, ANSOR_RULES)
                schedules = {}

        # ---- kernel construction (Sec. 6.4) ------------------------------------
        kernels: List[BuiltKernel] = []
        with PhaseTimer(stats, "codegen"):
            for index, group in enumerate(groups):
                kernel_name = f"{program.name}_sp{index}"
                start = time.perf_counter()
                kernels.append(build_kernel(
                    name=kernel_name,
                    nodes=group,
                    program=program,
                    chars=chars,
                    schedules=schedules,
                    scheduler=scheduler,
                    device=self.device,
                    allow_sync=options.global_sync,
                ))
                stats.record_subprogram(
                    kernel_name, time.perf_counter() - start
                )
        if options.verify:
            verify_kernels_or_raise(kernels, self.device, program)

        # ---- subprogram-level optimisation (Sec. 6.5) -----------------------------
        if options.subprogram_opt:
            with PhaseTimer(stats, "subprogram_opt"):
                capacity = cache_capacity_bytes(
                    self.device.total_shared_mem, self.device.total_registers
                )
                for built, group in zip(kernels, groups):
                    built.reuse_report = apply_reuse(built.accesses, capacity)
                    built.refresh_traffic()
                    apply_pipeline(built, group, chars)

        stats.schedule_trials = scheduler.search_trials
        if schedule_snapshot:
            current = cache.schedules.stats.snapshot()
            stats.schedule_cache_hits = (
                current["hits"] - schedule_snapshot["hits"]
            )
            stats.schedule_cache_misses = (
                current["misses"] - schedule_snapshot["misses"]
            )

        module = CompiledModule(
            name=program.name,
            compiler=f"{self.name}-{options.level_name}",
            program=program,
            kernels=kernels,
            device=self.device,
            stats=stats,
            certificates=certificates,
        )

        if cache is not None and cache.modules is not None and mkey is not None:
            with PhaseTimer(stats, "cache_store"):
                cache.modules.store(mkey, module)
                if options.certify and cache.certificates is not None:
                    cache.certificates.save(mkey, certificates)
        return module


def compile_model(
    model: Union[Graph, TEProgram],
    device: Optional[GPUSpec] = None,
    level: int = 4,
    validate: bool = False,
    verify: bool = False,
    certify: bool = False,
    cache=None,
) -> CompiledModule:
    """One-call convenience API: compile at optimisation level V0..V4."""
    compiler = SouffleCompiler(
        device=device,
        options=SouffleOptions.from_level(
            level, validate, verify, certify=certify
        ),
        cache=cache,
    )
    return compiler.compile(model)
