"""Command-line interface: compile, profile and inspect models.

Usage::

    python -m repro compile bert --level 4
    python -m repro compare mmoe
    python -m repro kernels lstm --limit 2
    python -m repro memory bert
    python -m repro export swin /tmp/swin.json
    python -m repro compile /tmp/swin.json      # compile an exported graph
    python -m repro compile-stats bert --cache-dir /tmp/cache --repeat 2
    python -m repro lint bert --strict          # static verification
    python -m repro lint bert --json            # machine-readable findings
    python -m repro certify bert --strict       # translation validation
    python -m repro plan-stats bert --batch 8   # plan-optimizer report

``compile`` and ``compile-stats`` honour ``--cache-dir`` (or the
``REPRO_CACHE_DIR`` environment variable) for the persistent compile cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.core.config import SouffleOptions
from repro.core.souffle import SouffleCompiler
from repro.frontends.serialize import load_graph, save_graph
from repro.graph.graph import Graph
from repro.graph.lowering import lower_graph
from repro.models import PAPER_MODELS, TINY_MODELS, get_model
from repro.runtime.module import CompileStats
from repro.runtime.profiler import profile_module


def _resolve_model(spec: str) -> Graph:
    """A model name from the registry, or a path to an exported JSON graph."""
    if spec in PAPER_MODELS:
        return get_model(spec)
    if spec.endswith(".json"):
        return load_graph(spec)
    raise SystemExit(
        f"unknown model {spec!r}; choose one of {sorted(PAPER_MODELS)} or "
        "pass a .json graph file"
    )


def _compiler_from_args(args: argparse.Namespace,
                        validate: bool = False) -> SouffleCompiler:
    return SouffleCompiler(
        options=SouffleOptions.from_level(args.level, validate=validate),
        cache=getattr(args, "cache_dir", None),
    )


def cmd_compile(args: argparse.Namespace) -> int:
    graph = _resolve_model(args.model)
    compiler = _compiler_from_args(args, validate=args.validate)
    module = compiler.compile(graph)
    report = profile_module(module)
    print(report.render(top=args.top))
    print(f"\ncompile phases (s): "
          + ", ".join(f"{k}={v:.3f}"
                      for k, v in module.stats.phase_seconds.items()))
    return 0


def render_compile_stats(stats: CompileStats, top: int = 8) -> str:
    """Human-readable compile observability report (``compile-stats``)."""
    lines = ["compile phases:"]
    for phase, seconds in stats.phase_seconds.items():
        lines.append(f"  {phase:22s} {seconds:9.4f} s")
    lines.append(f"  {'total':22s} {stats.total_seconds:9.4f} s")
    if stats.subprogram_seconds:
        slowest = sorted(
            stats.subprogram_seconds.items(), key=lambda kv: -kv[1]
        )[:top]
        lines.append(
            f"subprograms: {len(stats.subprogram_seconds)} built, slowest:"
        )
        for name, seconds in slowest:
            lines.append(f"  {name:22s} {seconds:9.4f} s")
    if stats.schedule_cache_lookups:
        lines.append(
            f"schedule cache: {stats.schedule_cache_hits} hits / "
            f"{stats.schedule_cache_misses} misses "
            f"({stats.schedule_cache_hit_rate * 100:.1f}% hit rate)"
        )
    else:
        lines.append("schedule cache: disabled")
    lines.append(
        "module cache: " + ("hit" if stats.module_cache_hit else "miss")
    )
    lines.append(f"schedule trials: {stats.schedule_trials}")
    return "\n".join(lines)


def cmd_compile_stats(args: argparse.Namespace) -> int:
    graph = _resolve_model(args.model)
    for attempt in range(1, args.repeat + 1):
        compiler = _compiler_from_args(args)
        start = time.perf_counter()
        module = compiler.compile(graph)
        wall = time.perf_counter() - start
        print(
            f"run {attempt}/{args.repeat}: {args.model} "
            f"[{module.compiler}] — {wall:.4f} s wall, "
            f"{module.kernel_calls} kernels"
        )
        print(render_compile_stats(module.stats, top=args.top))
        if attempt < args.repeat:
            print()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import ALL_BASELINES

    graph = _resolve_model(args.model)
    rows = [("souffle", profile_module(
        SouffleCompiler(options=SouffleOptions.from_level(args.level))
        .compile(graph)))]
    for name, compiler_cls in ALL_BASELINES.items():
        rows.append((name, profile_module(compiler_cls().compile(graph))))
    print(f"{'system':10s} {'ms':>10s} {'kernels':>8s} {'MB':>10s}")
    for name, report in sorted(rows, key=lambda r: r[1].total_time_ms):
        print(f"{name:10s} {report.total_time_ms:10.3f} "
              f"{report.kernel_calls:8d} {report.transfer_bytes / 1e6:10.2f}")
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    graph = _resolve_model(args.model)
    module = SouffleCompiler(
        options=SouffleOptions.from_level(args.level)
    ).compile(graph)
    print(module.render_kernels(limit=args.limit))
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    from repro.runtime.memory_planner import plan_memory

    graph = _resolve_model(args.model)
    program = lower_graph(graph)
    plan = plan_memory(program)
    print(plan.render(top=args.top))
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Measure plan-based serving throughput vs the interpretive evaluator."""
    import numpy as np

    from repro.runtime.session import InferenceSession
    from repro.transform.semantics import random_feeds

    if args.scale == "tiny":
        if args.model not in TINY_MODELS:
            raise SystemExit(
                f"unknown tiny model {args.model!r}; choose one of "
                f"{sorted(TINY_MODELS)} (or use --scale paper)"
            )
        graph = get_model(args.model, scale="tiny")
    else:
        graph = _resolve_model(args.model)

    module = _compiler_from_args(args).compile(graph)
    program = module.program
    feeds = random_feeds(program, seed=args.seed)
    buckets = {2, 4, 8}
    if args.batch > 1:
        buckets.add(args.batch)
    session = InferenceSession(
        program, name=graph.name, profile=True,
        batch_buckets=tuple(sorted(buckets)),
    )

    # Warm both paths once (plan construction, numpy caches).
    plan_out = session.run(feeds)
    interp_out = module.run_interpreted(feeds)
    exact = all(np.array_equal(a, b) for a, b in zip(plan_out, interp_out))

    start = time.perf_counter()
    for _ in range(args.calls):
        module.run_interpreted(feeds)
    interp_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(args.calls):
        session.run(feeds)
    plan_seconds = time.perf_counter() - start

    interp_rps = args.calls / interp_seconds
    plan_rps = args.calls / plan_seconds
    bench = {
        "benchmark": "serve-bench",
        "model": graph.name,
        "scale": args.scale,
        "calls": args.calls,
        "seed": args.seed,
        "interp_ms_per_req": interp_seconds / args.calls * 1e3,
        "plan_ms_per_req": plan_seconds / args.calls * 1e3,
        "plan_req_per_s": plan_rps,
        "speedup": interp_seconds / plan_seconds,
    }
    print(
        f"serve-bench: {graph.name} [{args.scale}] — {args.calls} calls, "
        f"outputs bit-identical: {exact}"
    )
    print(f"{'engine':14s} {'req/s':>10s} {'ms/req':>10s}")
    print(f"{'interpreter':14s} {interp_rps:10.1f} "
          f"{interp_seconds / args.calls * 1e3:10.3f}")
    print(f"{'plan replay':14s} {plan_rps:10.1f} "
          f"{plan_seconds / args.calls * 1e3:10.3f}")
    print(f"speedup: {interp_seconds / plan_seconds:.2f}x")

    if args.batch > 1:
        # Per-request feeds share the weight arrays (bound once, broadcast
        # across lanes) and vary the leading input, like real traffic.
        rng = np.random.default_rng(args.seed + 1)
        lead = program.inputs[0]
        requests = []
        for _ in range(args.calls):
            request = dict(feeds)
            request[lead] = feeds[lead] + rng.standard_normal(lead.shape) * 0.01
            requests.append(request)
        singles = [session.run(request) for request in requests]
        start = time.perf_counter()
        for request in requests:
            session.run(request)
        single_seconds = time.perf_counter() - start
        chunks = [requests[i:i + args.batch]
                  for i in range(0, len(requests), args.batch)]
        batched = [outs for chunk in chunks for outs in session.run_batch(chunk)]
        exact_batch = all(
            np.array_equal(got, want)
            for outs, ref in zip(batched, singles)
            for got, want in zip(outs, ref)
        )
        start = time.perf_counter()
        for chunk in chunks:
            session.run_batch(chunk)
        batch_seconds = time.perf_counter() - start
        print(
            f"\nbatched replay (batch {args.batch}): "
            f"{args.calls / batch_seconds:.1f} req/s, "
            f"{batch_seconds / args.calls * 1e3:.3f} ms/req, "
            f"{single_seconds / batch_seconds:.2f}x vs single requests, "
            f"bit-identical: {exact_batch}"
        )
        bench["batched"] = {
            "batch": args.batch,
            "req_per_s": args.calls / batch_seconds,
            "ms_per_req": batch_seconds / args.calls * 1e3,
            "speedup_vs_single": single_seconds / batch_seconds,
            "bit_identical": exact_batch,
        }
        exact = exact and exact_batch

    if args.replicas > 0:
        exact = _serve_bench_sharded(args, graph, feeds) and exact

    if args.concurrency > 0:
        import threading

        server = session.serve(
            max_batch_size=args.batch if args.batch > 1 else 8,
            max_queue_delay_ms=2.0,
        )
        per_worker = max(1, args.calls // args.concurrency)
        failures = []

        def client() -> None:
            try:
                for _ in range(per_worker):
                    server.run(feeds, timeout=120)
            except Exception as exc:  # noqa: BLE001 — reported below
                failures.append(exc)

        workers = [threading.Thread(target=client)
                   for _ in range(args.concurrency)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        served_seconds = time.perf_counter() - start
        server.stop()
        if failures:
            raise SystemExit(f"batching server request failed: {failures[0]}")
        total = per_worker * args.concurrency
        print(
            f"\nbatching server ({args.concurrency} client threads): "
            f"{total / served_seconds:.1f} req/s, "
            f"mean batch {server.mean_batch_size:.2f}"
        )
        report = server.profile_report()
    else:
        report = session.profile_report()
    print()
    print(report.render(top=args.top))
    if args.json_out:
        import os

        bench["bit_identical"] = exact
        os.makedirs(
            os.path.dirname(os.path.abspath(args.json_out)), exist_ok=True
        )
        with open(args.json_out, "w") as handle:
            json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    return 0 if exact else 1


def _serve_bench_sharded(args: argparse.Namespace, graph, feeds) -> bool:
    """Sharded multi-process serving vs the single-process batching server.

    Every replica maps the same shared-memory weight blob, so adding
    replicas costs CPU but (to first order) no weight memory; the printed
    metrics include the per-replica private weight bytes to prove it.
    """
    import numpy as np

    from repro.runtime.batching import BatchingServer
    from repro.runtime.session import InferenceSession
    from repro.runtime.sharding import ShardedServer

    by_name = {t.name: v for t, v in feeds.items()}
    batch = args.batch if args.batch > 1 else 8
    server = ShardedServer(
        graph,
        {t.name: v for t, v in feeds.items() if t.role == "weight"},
        replicas=args.replicas, max_batch_size=batch, max_queue_delay_ms=2.0,
    )
    # The workers serve the server's own lowering of the graph (no
    # compiler TE rewrites), so the serial reference and the baseline
    # replay its PlanState: the compiled ``module.program`` computes
    # rewritten expressions whose floats differ in the last bit.
    program = server.plan_state.program
    lead = program.inputs[0]
    rng = np.random.default_rng(args.seed + 2)
    requests = []
    for _ in range(args.calls):
        request = {t: by_name[t.name] for t in program.inputs
                   if t.role != "weight"}
        request[lead] = (by_name[lead.name]
                         + rng.standard_normal(lead.shape) * 0.01)
        requests.append(request)

    # Serial reference for the bit-identity check.
    ref = InferenceSession.from_plan_state(server.plan_state, name=graph.name)
    serial = [ref.run(request) for request in requests]

    # Baseline: one process, one session, dynamic batching.
    baseline = BatchingServer(ref, max_batch_size=batch,
                              max_queue_delay_ms=2.0)
    baseline.start()
    start = time.perf_counter()
    base_futs = [baseline.submit(request) for request in requests]
    for fut in base_futs:
        fut.result(timeout=300)
    base_seconds = time.perf_counter() - start
    baseline.stop()

    with server:
        start = time.perf_counter()
        futs = [server.submit(request) for request in requests]
        results = [fut.result(timeout=300) for fut in futs]
        shard_seconds = time.perf_counter() - start
        report = server.render_metrics()
    exact = all(
        np.array_equal(got, want)
        for outs, want_outs in zip(results, serial)
        for got, want in zip(outs, want_outs)
    )
    print(
        f"\nsharded serving ({args.replicas} replicas): "
        f"{args.calls / shard_seconds:.1f} req/s vs "
        f"{args.calls / base_seconds:.1f} req/s single-process "
        f"({base_seconds / shard_seconds:.2f}x), "
        f"bit-identical: {exact}"
    )
    print(report)
    return exact


def cmd_lint(args: argparse.Namespace) -> int:
    """Compile a model and run the full static verifier over the result."""
    from repro.verify import verify_module

    graph = _resolve_model(args.model)
    module = _compiler_from_args(args).compile(graph)
    report = verify_module(module)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def cmd_certify(args: argparse.Namespace) -> int:
    """Compile a model with translation validation on and certify the
    optimized plan + batched lowering (see ``repro.verify.equiv``)."""
    from repro.verify.equiv import certify_model

    graph = _resolve_model(args.model)
    report = certify_model(
        graph,
        level=args.level,
        batch_size=args.batch if args.batch > 0 else None,
        cache=getattr(args, "cache_dir", None),
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def cmd_plan_stats(args: argparse.Namespace) -> int:
    """Report what the plan-optimizer pass pipeline does to one model."""
    from repro.runtime.executor import read_stats
    from repro.runtime.memory_planner import plan_memory
    from repro.runtime.plan_opt import arena_sizer, plan_optimization

    batch = args.batch if args.batch > 1 else None
    if args.scale == "tiny":
        if args.model not in TINY_MODELS:
            raise SystemExit(
                f"unknown tiny model {args.model!r}; choose one of "
                f"{sorted(TINY_MODELS)} (or use --scale paper)"
            )
        graph = get_model(args.model, scale="tiny")
    else:
        graph = _resolve_model(args.model)
    # The plan of the compiled program is what InferenceSession and
    # BatchingServer serve. The static planner decides it, so the report
    # needs no plan build (a paper-scale one takes seconds); the
    # unoptimized arena it is measured against is packed here.
    program = SouffleCompiler().compile(graph).program
    optimization = plan_optimization(program, batch_size=batch)
    baseline = plan_memory(
        program, sizer=arena_sizer(batch), exclusive_writes=True
    )
    suffix = f" (batch {batch})" if batch is not None else ""
    print(f"plan optimizer: {graph.name}{suffix}")
    print(optimization.stats.render(baseline.workspace_bytes))
    print(read_stats(program).render())
    if args.replicas > 0:
        from repro.runtime.executor import EXEC_ITEMSIZE

        # Static sharded-serving memory report: the weight table is
        # immutable at serve time, so a sharded deployment places it once
        # in shared memory instead of once per replica.
        weights = [t for t in program.inputs if t.role == "weight"]
        shared = sum(t.num_elements * EXEC_ITEMSIZE for t in weights)
        k = args.replicas
        print(f"sharded serving ({k} replicas):")
        print(f"  weights: {shared / 1e6:.2f} MB ({len(weights)} tensors)")
        print(
            f"  per-process copies: {k * shared / 1e6:.2f} MB — "
            f"shared-memory placement: {shared / 1e6:.2f} MB "
            f"(saves {(k - 1) * shared / 1e6:.2f} MB, "
            f"{(1 - 1 / k) * 100:.0f}%)"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    graph = _resolve_model(args.model)
    save_graph(graph, args.path)
    print(f"wrote {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Souffle (ASPLOS 2024) reproduction — DNN inference "
                    "compiler over tensor expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="model name or exported .json graph")
        p.add_argument("--level", type=int, default=4, choices=range(5),
                       help="optimisation level V0..V4 (default 4)")

    def add_cache(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="persistent compile-cache directory "
                            "(default: $REPRO_CACHE_DIR if set)")

    p = sub.add_parser("compile", help="compile and profile a model")
    add_common(p)
    add_cache(p)
    p.add_argument("--validate", action="store_true",
                   help="differentially check every transformation")
    p.add_argument("--top", type=int, default=15,
                   help="profile rows to print")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser(
        "compile-stats",
        help="compile and report phase/subprogram timings and cache hit rates",
    )
    add_common(p)
    add_cache(p)
    p.add_argument("--repeat", type=int, default=1,
                   help="compile N times (shows warm-cache behaviour)")
    p.add_argument("--top", type=int, default=8,
                   help="slowest subprograms to print")
    p.set_defaults(fn=cmd_compile_stats)

    p = sub.add_parser("compare", help="Souffle vs all six baselines")
    add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("kernels", help="print generated pseudo-CUDA kernels")
    add_common(p)
    p.add_argument("--limit", type=int, default=1)
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("memory", help="plan and print the global workspace")
    add_common(p)
    p.add_argument("--top", type=int, default=12)
    p.set_defaults(fn=cmd_memory)

    p = sub.add_parser(
        "serve-bench",
        help="serving throughput: plan-based replay vs interpretive run",
    )
    add_common(p)
    p.add_argument("--scale", choices=("tiny", "paper"), default="tiny",
                   help="model scale to execute functionally (default tiny; "
                        "a paper-scale request takes seconds per engine)")
    p.add_argument("--calls", type=int, default=32,
                   help="timed requests per engine (default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="random-feed seed (default 0)")
    p.add_argument("--top", type=int, default=12,
                   help="slowest plan steps to print")
    p.add_argument("--batch", type=int, default=0,
                   help="also time batched plan replay at this batch size "
                        "(0 = off)")
    p.add_argument("--concurrency", type=int, default=0,
                   help="drive a dynamic-batching server with this many "
                        "client threads (0 = off)")
    p.add_argument("--replicas", type=int, default=0,
                   help="also serve through this many sharded worker "
                        "processes mapping one shared-memory weight blob, "
                        "vs the single-process batching server (0 = off)")
    p.add_argument("--json-out", default=None,
                   help="also write the headline metrics as JSON to this "
                        "path (e.g. benchmarks/results/serve_bench.json)")
    p.set_defaults(fn=cmd_serve_bench)

    p = sub.add_parser(
        "lint",
        help="compile a model and statically verify the result "
             "(bounds, shape/dtype, well-formedness, arena hazards, "
             "sync safety)",
    )
    add_common(p)
    add_cache(p)
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors (exit 1)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as machine-readable JSON")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "certify",
        help="compile with translation validation: prove every transform "
             "application equivalence-preserving (TE rewrites, plan "
             "optimizer passes, tiling, batched lowering)",
    )
    add_common(p)
    add_cache(p)
    p.add_argument("--batch", type=int, default=8,
                   help="certify the batched lowering at this batch size "
                        "(0 = skip explicit batch; default 8)")
    p.add_argument("--strict", action="store_true",
                   help="treat unknown verdicts as failures (exit 1)")
    p.add_argument("--json", action="store_true",
                   help="emit the certificates as machine-readable JSON")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser(
        "plan-stats",
        help="what the plan optimizer does to a model's execution plan "
             "(steps fused, bytes elided)",
    )
    p.add_argument("model", help="model name")
    p.add_argument("--scale", choices=("tiny", "paper"), default="tiny",
                   help="model scale; both report the plan of the "
                        "compiled program, as served (default tiny)")
    p.add_argument("--batch", type=int, default=0,
                   help="optimize the batched plan at this batch size "
                        "(0 = unbatched)")
    p.add_argument("--replicas", type=int, default=0,
                   help="also report the sharded-serving weight memory at "
                        "this replica count: bytes duplicated per process "
                        "vs placed once in shared memory (0 = off)")
    p.set_defaults(fn=cmd_plan_stats)

    p = sub.add_parser("export", help="export a model to the JSON format")
    add_common(p)
    p.add_argument("path", help="output .json path")
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
