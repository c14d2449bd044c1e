"""One repetition of one workload, in a fresh process.

:mod:`perfbench.run` starts this once per repetition with empty,
private cache directories (``PLP_TRACE_CACHE``, ``PLP_SWEEP_CACHE``,
``PLP_CAMPAIGN_CACHE`` and ``HOME`` all point into the repetition's
temp directory), so every repetition is cold.  It writes one JSON
document with its host times, memory, check outcome, manifest and —
when traced — the per-layer numbers derived from its spans.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import quantiles
from typing import Dict, List

from perfbench import spans as spanlib
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, load_golden

# Span names that stand for one job (simulation, stream replay or cell).
JOB_SPANS = ("job", "sim.run_stream", "campaign.cell", "app.cell")


def _check_hermetic(tmp: Path) -> None:
    """Refuse to run if any cache root resolves outside ``tmp``."""
    from repro.campaign.runner import default_campaign_cache_root
    from repro.sweep.cache import caching_disabled, default_cache_root
    from repro.sweep.trace_cache import default_trace_cache_root, trace_caching_disabled

    for root in (default_trace_cache_root(), default_cache_root(), default_campaign_cache_root()):
        if tmp.resolve() not in root.resolve().parents:
            raise RuntimeError(f"cache root {root} is outside the repetition's temp dir")
        if root.exists() and any(root.iterdir()):
            raise RuntimeError(f"cache root {root} is not empty")
    if caching_disabled() or trace_caching_disabled():
        raise RuntimeError("result or trace caching is disabled; the cold regime needs both on")


def manifest(workload, ctx, seed: int, size: str) -> Dict:
    from repro.sweep.cache import code_version, config_digest
    from repro.sweep.trace_cache import generator_version

    configs: Dict[str, str] = {}
    for job in ctx.get("jobs", ()):
        config = job.resolved_config()
        label = f"{job.benchmark}/{job.scheme}/" + ",".join(f"{k}={v}" for k, v in job.overrides)
        configs[label] = config_digest(config)
    for config in ctx.get("configs", ()):
        configs[f"stream/{config.scheme.value}"] = config_digest(config)
    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "code_version": code_version(),
        "generator_version": generator_version(),
        "trace_ki": ctx.get("ki"),
        "trace_ops": ctx.get("ops"),
        "workers": ctx["workers"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "distinct_configs": len(set(configs.values())),
        "config_digest": configs,
    }


def _pctl(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(hooks, spans: List[list], ctx, outcome) -> Dict:
    """Per-layer numbers from one traced repetition's spans and counters."""
    import repro.sweep.runner as runner

    table = spanlib.by_name(spans)
    counts = hooks.counts

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def own(*names: str) -> float:
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    root = spans[0]
    root_s = (root[spanlib.END] - root[spanlib.START]) / 1e9
    root_self = spanlib.self_times(spans)[0]
    disk = runner._disk_trace_cache
    cells = [s for s in spans if s[spanlib.NAME] in ("campaign.cell", "app.cell")]
    cell_s = sum(s[spanlib.END] - s[spanlib.START] for s in cells) / 1e9
    pool_wall = total("sweep.run_tasks") if ctx["workers"] > 1 else 0.0
    dispatch_s = own("sim.run", "sim.run_stream")
    events = counts["dispatch.events"]
    jobs = [
        (s[spanlib.END] - s[spanlib.START]) / 1e6 for s in spans if s[spanlib.NAME] in JOB_SPANS
    ]
    out = {
        "workloads.gen_s": total("workloads.gen"),
        "trace_cache.hits": disk.hits if disk is not None else 0,
        "trace_cache.misses": disk.misses if disk is not None else 0,
        "trace_cache.load_s": total("trace_cache.load"),
        "trace_cache.put_s": total("trace_cache.put"),
        "trace.chunks": counts["trace.chunks"],
        "trace.chunk_load_s": total("trace.chunk_load"),
        "prepass.builds": counts["prepass.builds"],
        "prepass.memo_hits": counts["prepass.memo_hits"],
        "prepass.events": counts["prepass.events"],
        "prepass.self_s": own("prepass"),
        "mdreplay.builds": counts["mdreplay.builds"],
        "mdreplay.memo_hits": counts["mdreplay.memo_hits"],
        "mdreplay.walks": counts["mdreplay.walks"],
        "mdreplay.self_s": own("mdreplay"),
        "dispatch.self_s": dispatch_s,
        "dispatch.events": events,
        "dispatch.us_per_event": dispatch_s / events * 1e6 if events else 0.0,
        "result_cache.puts": counts["result_cache.puts"],
        "result_cache.hits": counts["result_cache.hits"],
        "result_cache.put_s": total("result_cache.put"),
        "pool.tasks": sum(1 for s in cells if s[spanlib.PID] != root[spanlib.PID]),
        "pool.spawns": runner.pool_spawns,
        "pool.wall_s": pool_wall,
        "pool.overhead_s": pool_wall - cell_s if pool_wall else 0.0,
        "campaign.cells": outcome.extra.get("campaign.cells", 0),
        "campaign.exec_s": sum(
            s[spanlib.END] - s[spanlib.START] for s in cells if s[spanlib.NAME] == "campaign.cell"
        )
        / 1e9,
        "plans.gen_s": total("plans.gen"),
        "plans.run": outcome.extra.get("plans.run", 0),
        "plans.prune_ratio": outcome.extra.get("plans.prune_ratio", 0.0),
        "app_campaign.exec_s": sum(
            s[spanlib.END] - s[spanlib.START] for s in cells if s[spanlib.NAME] == "app.cell"
        )
        / 1e9,
        "analysis.verify_s": total("analysis.verify"),
        "job.p50_ms": _pctl(jobs, 50),
        "job.p90_ms": _pctl(jobs, 90),
        "trace.spans": len(spans),
        "trace.unattributed_frac": root_self / 1e9 / root_s if root_s else 0.0,
    }
    return out


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="perfbench rep")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    args = parser.parse_args(argv)

    tmp = Path(args.tmp)
    _check_hermetic(tmp)
    workload = WORKLOADS[args.workload]
    ctx = workload.build(args.seed, args.size, tmp)
    golden = None
    if args.size == "full" and (args.seed == DEFAULT_SEED or workload.golden_any_seed):
        golden = load_golden().get(workload.name)

    hooks = None
    if args.trace:
        from perfbench.hooks import Hooks

        hooks = Hooks(tmp)
        hooks.install()

    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    error = None
    root = hooks.recorder.begin("timed") if hooks else None
    cpu0 = time.process_time()
    start = time.perf_counter_ns()
    try:
        out_run = workload.run(ctx)
    except Exception:  # a job that raised: report it as failed, keep the traceback
        error = traceback.format_exc()
        out_run = None
    wall_s = (time.perf_counter_ns() - start) / 1e9
    cpu_s = time.process_time() - cpu0
    if hooks:
        hooks.recorder.end(root)
        hooks.uninstall()

    import repro.sweep.runner as runner

    runner.shutdown_pool()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # The high-water mark of the largest single process (this one or any
    # pool worker), not the sum over the process tree.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children.ru_maxrss)

    doc: Dict = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # Host CPU of the timed part in this process, plus all pool workers.
        "cpu_s": cpu_s + children.ru_utime + children.ru_stime,
        "peak_rss_mb": rss_kb / 1024.0,
        "manifest": manifest(workload, ctx, args.seed, args.size),
        "golden_checked": golden is not None,
    }
    if error is not None:
        sys.stderr.write(error)
        doc.update(attempted=1, failed=1, problems=[error.strip().splitlines()[-1]], digests=[])
    else:
        outcome = workload.check(ctx, out_run)
        if golden is not None:
            outcome.compare_golden(golden)
        doc.update(
            attempted=outcome.attempted,
            failed=outcome.failed,
            problems=outcome.problems,
            digests=outcome.digests,
            sim_instructions=outcome.sim_instructions,
            hw=outcome.hw,
            extra=outcome.extra,
        )
        if hooks:
            main_spans = hooks.recorder.spans
            worker_spans = []
            for path in sorted(tmp.glob("worker-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    worker_spans += [json.loads(line) for line in fh]
            spans = main_spans + worker_spans
            doc["layers"] = layer_metrics(hooks, spans, ctx, outcome)
            # Self times of the main process's spans add up to the traced
            # wall; the root's own share is what no layer span covers.
            # Pool-worker spans run beside them and are tabled apart.
            own = spanlib.self_times(main_spans)
            doc["span_table"] = spanlib.by_name(main_spans)
            doc["worker_span_table"] = spanlib.by_name(worker_spans)
            doc["accounting"] = {
                "traced_wall_s": (spans[0][spanlib.END] - spans[0][spanlib.START]) / 1e9,
                "self_sum_s": sum(own) / 1e9,
                "unattributed_s": own[0] / 1e9,
            }
            doc["chrome"] = spanlib.chrome_trace(spans, spans[0][spanlib.START])
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0
