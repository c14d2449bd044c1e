"""Perf-regression harness for the sweep runner and simulator hot path.

First times the trace layer on the sweep's benchmarks:

1. ``trace_generate`` — the synthetic generator, run fresh for every
   trace (the only path the seed implementation had).
2. ``trace_cache_cold`` — a fresh on-disk trace cache: generate each
   trace once and store it as a packed binary artifact.
3. ``trace_cache_warm`` — the same traces again; every one should load
   as packed bytes with no generator run.

Then runs the same ``benchmark x scheme`` sweep three ways:

1. ``sequential`` — one process, result cache disabled (the plain
   in-process path every artifact used before the runner existed).
2. ``runner_cold`` — the parallel runner against a fresh cache
   directory, so every job is a cache miss and actually simulates.
3. ``runner_warm`` — the same sweep again; every job should be served
   from the content-addressed cache without simulating.

A fourth stage, ``telemetry_on``, repeats the sequential sweep with the
telemetry event bus enabled (``TelemetryConfig(enabled=True)`` on every
job, cache disabled): its results must stay bit-identical to the
telemetry-off sequential stage (instrumentation must never feed back
into timing), and its wall-clock ratio vs sequential is recorded as the
cost of observability.  The sequential stage itself doubles as the
telemetry-*off* regression guard — the subsystem's disabled path must
stay within noise of pre-telemetry builds.

A fifth stage, ``engine_batched``, times every timing-engine family
(``SystemConfig.engine``): the array-native batched engine (the
default) and the scalar skip-ahead engine against the per-cycle
stepped reference on the quick matrix, then batched vs skip-ahead
again on the standard 25 KI matrix.  All three must be bit-identical,
and the measured speedups must clear the ``FLOORS`` gates.

All simulating stages must produce bit-identical results (the full
``SimResult`` is compared field by field); the harness fails hard if
they ever diverge, or if any ``FLOORS`` perf gate is missed.  Timings,
speedups vs the sequential stage, and cache statistics are written to
``BENCH_perf.json`` at the repo root (and mirrored under
``benchmarks/results/``) for trend tracking.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_perf.py --quick --jobs 2

Note on speedups: even on a single-core host the cold runner beats the
sequential stage — the persistent fork pool's workers inherit the
parent's warm batched-engine prepass memos copy-on-write, so parallel
jobs skip the prepass the sequential stage paid for — and the warm
stage skips simulation entirely via the result cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import repro.sweep.runner as sweep_runner
from repro.sweep import SweepJob, TraceCache, code_version, generator_version, run_jobs
from repro.telemetry import TelemetryConfig
from repro.workloads.spec_profiles import profile_trace

from common import RESULTS_DIR, SUBSET, TRACE_KI

FULL_SCHEMES = ["secure_wb", "sp", "pipeline", "o3", "coalescing"]
QUICK_SCHEMES = ["secure_wb", "sp", "coalescing"]
QUICK_BENCHMARKS = ["gamess", "gcc"]
QUICK_KI = 5

REQUIRED_FIELDS = ("cycles", "persists", "node_updates", "ppki")

FLOORS = {
    # Batched engine vs the scalar skip-ahead engine, same matrix, warm
    # prepass memos (the steady-state sweep regime).  Measured ~3.2x on
    # the quick matrix and ~3.7x on the full 25 KI matrix.
    "engine_batched_vs_skip_ahead": 3.0,
    # Batched engine vs the per-cycle stepped oracle (quick matrix only
    # — stepped is deliberately O(cycles waited)).  Measured ~18x.
    "engine_batched_vs_stepped": 10.0,
    # The scalar skip-ahead engine must also stay well ahead of the
    # oracle (the pre-batched floor).  Measured ~5.7x.
    "engine_skip_ahead_vs_stepped": 3.0,
    # Cold parallel runner vs the sequential stage.  The persistent
    # fork pool inherits the parent's warm prepass memos, so even on a
    # single core the cold runner must beat sequential.  Enforced on
    # the full matrix only: the quick matrix is too small to amortize
    # the one-time pool spin-up it triggers.
    "runner_cold_speedup": 1.3,
    # Telemetry-on sequential sweep vs telemetry-off (max ratio).
    "telemetry_overhead_max": 1.5,
    # Peak RSS of a fresh process streaming the stream-stage trace end
    # to end (``run_stream`` over a chunked v2 file).  Hard cap, always
    # enforced: measured ~129 MB at 10M ops, vs ~1 GB for a
    # materialized run (trace columns + event list + tick table).
    "stream_peak_rss_mb": 300.0,
    # Crash-plan pruning: the app campaign's generator must skip at
    # least half of the exhaustive ``1 + 16n`` crash space while the
    # exhaustive cross-check still classifies every cell identically to
    # its representative.  Measured ~94% on the atomic roster.
    "app_prune_ratio": 0.5,
}
"""Hard perf gates: the harness exits non-zero when any floor is missed."""


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def build_jobs(quick: bool):
    benchmarks = QUICK_BENCHMARKS if quick else SUBSET
    schemes = QUICK_SCHEMES if quick else FULL_SCHEMES
    ki = QUICK_KI if quick else TRACE_KI
    jobs = [
        SweepJob.make(name, scheme, ki)
        for name in benchmarks
        for scheme in schemes
    ]
    matrix = {"benchmarks": benchmarks, "schemes": schemes, "kilo_instructions": ki}
    return jobs, matrix


def run_trace_stages(benchmarks, ki: int, cache_root: Path) -> list:
    """Time the trace layer: generator vs cold vs warm packed-trace cache."""
    stages = []

    start = time.perf_counter()
    generated = [profile_trace(name, ki) for name in benchmarks]
    generate_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_generate",
            "traces": len(generated),
            "records": sum(len(t) for t in generated),
            "wall_seconds": round(generate_wall, 6),
        }
    )

    cache = TraceCache(cache_root)
    start = time.perf_counter()
    cold = [cache.load_or_generate(name, ki) for name in benchmarks]
    cold_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_cache_cold",
            "traces": len(cold),
            "records": sum(len(t) for t in cold),
            "wall_seconds": round(cold_wall, 6),
            **cache.stats(),
        }
    )

    warm_cache = TraceCache(cache_root)
    start = time.perf_counter()
    warm = [warm_cache.load_or_generate(name, ki) for name in benchmarks]
    warm_wall = time.perf_counter() - start
    stages.append(
        {
            "name": "trace_cache_warm",
            "traces": len(warm),
            "records": sum(len(t) for t in warm),
            "wall_seconds": round(warm_wall, 6),
            **warm_cache.stats(),
        }
    )

    if warm_cache.hits != len(benchmarks):
        print("FAIL: warm trace cache missed", file=sys.stderr)
        raise SystemExit(1)
    for loaded, fresh in zip(warm, generated):
        if loaded != fresh:
            print("FAIL: cached trace diverged from the generator", file=sys.stderr)
            raise SystemExit(1)

    for stage in stages:
        stage["speedup_vs_generate"] = (
            round(generate_wall / stage["wall_seconds"], 3)
            if stage["wall_seconds"] > 0
            else None
        )
    return stages


def _engine_matrix_wall(engine: str, benchmarks, schemes, ki: int, reps: int = 2):
    """Best-of-``reps`` sequential wall for one engine family.

    The first rep also warms the batched engine's per-trace prepass
    memos, so the recorded number reflects the steady-state sweep
    regime every artifact actually runs in.
    """
    jobs = [
        SweepJob.make(name, scheme, ki, engine=engine)
        for name in benchmarks
        for scheme in schemes
    ]
    best = None
    results = None
    for _ in range(reps):
        start = time.perf_counter()
        results, _ = run_jobs(jobs, workers=1, cache=False)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return best, results


def run_engine_stage(quick: bool) -> dict:
    """Differential perf stage: all three timing-engine families.

    The quick matrix runs batched, skip-ahead, *and* the per-cycle
    stepped oracle (stepped is deliberately O(total cycles waited), so
    it never sees the full 25 KI matrix); the full run then re-times
    batched vs skip-ahead on the standard 25 KI matrix.  All engines
    must be bit-identical, and every ``FLOORS`` entry is a hard gate.
    """
    walls = {}
    results = {}
    for engine in ("batched", "skip_ahead", "stepped"):
        walls[engine], results[engine] = _engine_matrix_wall(
            engine, QUICK_BENCHMARKS, QUICK_SCHEMES, QUICK_KI
        )
    golden = fingerprints(results["batched"])
    for engine in ("skip_ahead", "stepped"):
        if fingerprints(results[engine]) != golden:
            _fail(f"engine {engine!r} diverged from the batched engine")

    speedups = {
        "batched_vs_skip_ahead_quick": round(walls["skip_ahead"] / walls["batched"], 3),
        "batched_vs_stepped": round(walls["stepped"] / walls["batched"], 3),
        "skip_ahead_vs_stepped": round(walls["stepped"] / walls["skip_ahead"], 3),
    }
    stage = {
        "name": "engine_batched",
        "matrix": {
            "benchmarks": QUICK_BENCHMARKS,
            "schemes": QUICK_SCHEMES,
            "kilo_instructions": QUICK_KI,
        },
        "wall_seconds": round(walls["batched"], 6),
        "wall_seconds_skip_ahead": round(walls["skip_ahead"], 6),
        "wall_seconds_stepped": round(walls["stepped"], 6),
        "results_identical": True,
    }

    if not quick:
        full_walls = {}
        full_results = {}
        for engine in ("batched", "skip_ahead"):
            full_walls[engine], full_results[engine] = _engine_matrix_wall(
                engine, SUBSET, FULL_SCHEMES, TRACE_KI
            )
        if fingerprints(full_results["skip_ahead"]) != fingerprints(
            full_results["batched"]
        ):
            _fail("engines diverged on the full 25 KI matrix")
        speedups["batched_vs_skip_ahead"] = round(
            full_walls["skip_ahead"] / full_walls["batched"], 3
        )
        stage["wall_seconds_full"] = round(full_walls["batched"], 6)
        stage["wall_seconds_full_skip_ahead"] = round(full_walls["skip_ahead"], 6)
    else:
        # CI smoke: the quick matrix stands in for the 25 KI gate.
        speedups["batched_vs_skip_ahead"] = speedups["batched_vs_skip_ahead_quick"]
    stage["speedups"] = speedups

    for floor_key, measured_key in (
        ("engine_batched_vs_skip_ahead", "batched_vs_skip_ahead"),
        ("engine_batched_vs_stepped", "batched_vs_stepped"),
        ("engine_skip_ahead_vs_stepped", "skip_ahead_vs_stepped"),
    ):
        floor = FLOORS[floor_key]
        measured = speedups[measured_key]
        if measured < floor:
            _fail(f"{measured_key} speedup {measured}x is below the {floor}x floor")
    return stage


STREAM_OPS_FULL = 10_000_000
STREAM_OPS_QUICK = 300_000
STREAM_SCHEME = "sp"

_STREAM_PROBE = """
import json, resource, sys, time
from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.workloads.trace import TraceReader

t0 = time.perf_counter()
config = SystemConfig(scheme=UpdateScheme.from_name(sys.argv[2]))
with TraceReader(sys.argv[1]) as reader:
    TraceSimulator(config).run_stream(reader)
wall = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"wall": wall, "peak_mb": peak_kb / 1024.0}))
"""


def run_stream_stage(quick: bool) -> dict:
    """Streaming scale-out stage: bounded-RSS 10M-op run.

    Stream-generates a chunked v2 trace straight to disk (never holding
    the trace in memory), then replays it end to end with
    ``run_stream`` in a *fresh subprocess* whose peak RSS — measured via
    ``resource.getrusage`` — must stay under the hard
    ``stream_peak_rss_mb`` cap.
    """
    import subprocess

    from repro.workloads.synthetic import SyntheticSpec, stream_trace, synthetic_ops

    ops = STREAM_OPS_QUICK if quick else STREAM_OPS_FULL
    with tempfile.TemporaryDirectory(prefix="plp-bench-stream-") as tmp:
        path = str(Path(tmp) / "stream.plptrace")
        spec = SyntheticSpec(name="stream-bench", seed=3)
        ops_per_ki = spec.stores_per_ki + spec.loads_per_ki
        spec.kilo_instructions = max(1, round(ops / ops_per_ki))
        start = time.perf_counter()
        records = stream_trace(path, synthetic_ops(spec))
        generate_wall = time.perf_counter() - start
        file_bytes = os.path.getsize(path)

        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _STREAM_PROBE, path, STREAM_SCHEME],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            _fail(f"stream probe subprocess failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout)
        if probe["peak_mb"] > FLOORS["stream_peak_rss_mb"]:
            _fail(
                f"streamed {records:,}-op run peaked at {probe['peak_mb']:.1f} MB "
                f"RSS, above the {FLOORS['stream_peak_rss_mb']} MB cap"
            )

    return {
        "name": "stream_scale",
        "records": records,
        "file_bytes": file_bytes,
        "scheme": STREAM_SCHEME,
        "generate_wall_seconds": round(generate_wall, 6),
        "wall_seconds": round(probe["wall"], 6),
        "peak_rss_mb": round(probe["peak_mb"], 2),
    }


def run_recovery_stage(quick: bool) -> dict:
    """Recovery-table smoke stage: the cross-paper scheme zoo.

    Builds the recovery-latency vs runtime-overhead table over the
    acceptance roster (PLP schemes + triad_nvm/phoenix/secpm_wt/anubis)
    and runs a crash-campaign smoke over the zoo: every compliant or
    documented-relaxation scheme must classify 100% recovered with zero
    silent corruption, or the harness fails hard.
    """
    from repro.analysis.campaign import CampaignViolation, verify_campaign
    from repro.analysis.recovery import RECOVERY_TABLE_SCHEMES, build_recovery_table
    from repro.campaign.engine import run_scenario
    from repro.campaign.grid import SINGLETON_SUBSETS, enumerate_grid
    from repro.system.config import SystemConfig

    start = time.perf_counter()
    ki = 3 if quick else 10
    table = build_recovery_table(
        "gcc",
        kilo_instructions=ki,
        config=SystemConfig(memory_bytes=256 * 1024 * 1024),
    )
    rendered = table.render()
    print(rendered)
    for scheme in RECOVERY_TABLE_SCHEMES:
        if scheme.value not in rendered:
            _fail(f"recovery table is missing scheme {scheme.value!r}")

    zoo = ("triad_nvm", "phoenix", "secpm_wt", "anubis")
    scenarios = enumerate_grid(
        schemes=zoo,
        workloads=["overwrite", "ordered_pair"] if quick else None,
        subsets=SINGLETON_SUBSETS if quick else None,
    )
    cells = [run_scenario(s) for s in scenarios]
    try:
        verify_campaign(cells, require_tables=False)
    except CampaignViolation as exc:
        _fail(f"zoo campaign smoke: {exc}")
    recovered = sum(c.classification == "recovered" for c in cells)
    if recovered != len(cells):
        _fail(
            f"zoo campaign smoke: {len(cells) - recovered} of {len(cells)} "
            "cells did not recover"
        )
    return {
        "name": "recovery_table",
        "wall_seconds": round(time.perf_counter() - start, 6),
        "table_schemes": [s.value for s in RECOVERY_TABLE_SCHEMES],
        "campaign_schemes": list(zoo),
        "campaign_cells": len(cells),
        "campaign_recovered": recovered,
    }


def run_app_campaign_stage(quick: bool) -> dict:
    """App crash-plan stage: pruned campaign + exhaustive soundness gate.

    Generates the pruned crash-plan set for scheme x idiom over the
    ``smoke`` workload, runs every representative plan, and requires
    (a) every compliant/relaxed cell to recover into a legal
    pre-op/post-op frame (``verify_campaign`` raises otherwise), and
    (b) the exhaustive cross-check to agree with the pruner cell for
    cell while skipping at least ``FLOORS['app_prune_ratio']`` of the
    exhaustive space.
    """
    from repro.analysis.campaign import CampaignViolation, verify_campaign
    from repro.campaign.app_engine import APP_CAMPAIGN_SCHEMES, run_app_scenario
    from repro.campaign.plans import crosscheck_pruning, generate_plans

    start = time.perf_counter()
    schemes = ("sp", "coalescing", "triad_nvm") if quick else APP_CAMPAIGN_SCHEMES
    cells = []
    plan_sets = []
    checks = []
    for scheme in schemes:
        for idiom in ("snapshot", "undolog"):
            plan_set = generate_plans(scheme, idiom, "smoke")
            plan_sets.append(plan_set)
            cells.extend(run_app_scenario(p.scenario) for p in plan_set.plans)
            result = crosscheck_pruning(scheme, idiom, "smoke")
            checks.append(result)
            if not result["agree"]:
                _fail(
                    f"app campaign pruning is unsound for {scheme}/{idiom}: "
                    f"{result['disagreements']} {result['count_disagreements']}"
                )
            if result["prune_ratio"] < FLOORS["app_prune_ratio"]:
                _fail(
                    f"app campaign pruned only {result['prune_ratio']:.1%} of "
                    f"{scheme}/{idiom}, below the "
                    f"{FLOORS['app_prune_ratio']:.0%} floor"
                )
    try:
        verify_campaign(cells, require_tables=False)
    except CampaignViolation as exc:
        _fail(f"app campaign smoke: {exc}")
    consistent = sum(c.consistent_frame for c in cells)
    if consistent != len(cells):
        _fail(
            f"app campaign smoke: {len(cells) - consistent} of {len(cells)} "
            "cells left the legal pre-op/post-op frames"
        )
    exhaustive = sum(ps.exhaustive_cells for ps in plan_sets)
    skipped = sum(ps.skipped_cells for ps in plan_sets)
    return {
        "name": "app_campaign",
        "wall_seconds": round(time.perf_counter() - start, 6),
        "schemes": list(schemes),
        "idioms": ["snapshot", "undolog"],
        "plans_run": len(cells),
        "cells_consistent": consistent,
        "exhaustive_cells": exhaustive,
        "skipped_cells": skipped,
        "prune_ratio": round(skipped / exhaustive, 4) if exhaustive else None,
        "crosschecks_sound": all(c["agree"] for c in checks),
        "missed_mismatches": sum(c["missed_mismatches"] for c in checks),
    }


def run_stage(name: str, jobs, workers: int, cache) -> dict:
    start = time.perf_counter()
    results, report = run_jobs(jobs, workers=workers, cache=cache)
    wall = time.perf_counter() - start
    stage = {"name": name, **report.as_dict()}
    stage["wall_seconds"] = round(wall, 6)  # end-to-end, including pool spin-up
    return stage, results


def fingerprints(results) -> list:
    # Every stored field plus the derived headline metric (ppki is a
    # property, so asdict alone would not surface it).
    return [{**dataclasses.asdict(result), "ppki": result.ppki} for result in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"tiny matrix ({len(QUICK_BENCHMARKS)}x{len(QUICK_SCHEMES)} at {QUICK_KI} KI) for CI smoke runs",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(1, int(os.environ.get("PLP_BENCH_JOBS", "2"))),
        help="worker processes for the runner stages (default PLP_BENCH_JOBS or 2)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="where to write the machine-readable report",
    )
    args = parser.parse_args(argv)

    jobs, matrix = build_jobs(args.quick)
    print(
        f"bench_perf: {len(jobs)} jobs "
        f"({len(matrix['benchmarks'])} benchmarks x {len(matrix['schemes'])} schemes, "
        f"{matrix['kilo_instructions']} KI), runner stages use --jobs {args.jobs}"
    )

    stages = []
    with tempfile.TemporaryDirectory(prefix="plp-bench-perf-") as cache_dir:
        # Point the runner's trace cache at a bench-local directory so the
        # stages below are hermetic and the sweep workers load the packed
        # traces the trace stages just wrote.
        trace_cache_dir = Path(cache_dir) / "traces"
        os.environ["PLP_TRACE_CACHE"] = str(trace_cache_dir)
        trace_stages = run_trace_stages(
            matrix["benchmarks"], matrix["kilo_instructions"], trace_cache_dir
        )
        for stage in trace_stages:
            print(
                f"  {stage['name']:16s} {stage['wall_seconds']:8.3f}s  "
                f"{stage['speedup_vs_generate']:>8}x vs generator  "
                f"({stage['traces']} traces, {stage['records']:,} records)"
            )
        seq_stage, seq_results = run_stage("sequential", jobs, workers=1, cache=False)
        stages.append((seq_stage, seq_results))
        cold_stage, cold_results = run_stage(
            "runner_cold", jobs, workers=args.jobs, cache=cache_dir
        )
        stages.append((cold_stage, cold_results))
        warm_stage, warm_results = run_stage(
            "runner_warm", jobs, workers=args.jobs, cache=cache_dir
        )
        stages.append((warm_stage, warm_results))
        # Telemetry cost probe: same sweep, event bus on, no cache (the
        # result cache deliberately ignores the telemetry knob, so a
        # warm hit would skip the instrumented simulation entirely).
        telemetry_jobs = [
            dataclasses.replace(
                job,
                overrides=tuple(
                    sorted((*job.overrides, ("telemetry", TelemetryConfig(enabled=True))))
                ),
            )
            for job in jobs
        ]
        tel_stage, tel_results = run_stage(
            "telemetry_on", telemetry_jobs, workers=1, cache=False
        )
        stages.append((tel_stage, tel_results))
        # Engine differential: batched vs skip-ahead vs the per-cycle
        # stepped reference, on its own matrices (compared internally,
        # not against the sequential golden results).
        engine_stage = run_engine_stage(args.quick)
        # Streaming scale-out: bounded-RSS 10M-op streamed run.
        stream_stage = run_stream_stage(args.quick)
        # Cross-paper recovery table + zoo crash-campaign smoke.
        recovery_stage = run_recovery_stage(args.quick)
        # App crash-plan campaign: pruning soundness + differential gate.
        app_stage = run_app_campaign_stage(args.quick)

    # Determinism: every stage must reproduce the sequential results
    # exactly — full SimResult equality, not just the headline counters.
    golden = fingerprints(seq_results)
    for stage, results in stages[1:]:
        if fingerprints(results) != golden:
            print(f"FAIL: stage {stage['name']!r} diverged from sequential", file=sys.stderr)
            return 1
    for field in REQUIRED_FIELDS:
        assert field in golden[0], f"SimResult lost field {field!r}"

    seq_wall = stages[0][0]["wall_seconds"]
    telemetry_overhead = (
        round(tel_stage["wall_seconds"] / seq_wall, 3) if seq_wall > 0 else None
    )
    runner_cold_speedup = (
        round(seq_wall / cold_stage["wall_seconds"], 3)
        if cold_stage["wall_seconds"] > 0
        else None
    )
    if telemetry_overhead is not None and telemetry_overhead > FLOORS["telemetry_overhead_max"]:
        _fail(
            f"telemetry_on overhead {telemetry_overhead}x exceeds the "
            f"{FLOORS['telemetry_overhead_max']}x ceiling"
        )
    if not args.quick and (
        runner_cold_speedup is None
        or runner_cold_speedup < FLOORS["runner_cold_speedup"]
    ):
        _fail(
            f"runner_cold speedup {runner_cold_speedup}x is below the "
            f"{FLOORS['runner_cold_speedup']}x floor"
        )
    report = {
        "bench": "bench_perf",
        "quick": args.quick,
        "jobs_flag": args.jobs,
        "matrix": matrix,
        "code_version": code_version(),
        "generator_version": generator_version(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "floors": FLOORS,
        "determinism": {
            "checked_jobs": len(jobs),
            "compared_stages": [stage["name"] for stage, _ in stages[1:]],
            "identical": True,
        },
        "trace_stages": trace_stages,
        "engine": {
            "default": "batched",
            "reference": "stepped",
            "speedups": engine_stage["speedups"],
            "results_identical": True,
        },
        "runner": {
            "cold_speedup_vs_sequential": runner_cold_speedup,
            "pool_spawns": sweep_runner.pool_spawns,
        },
        "telemetry": {
            "off_stage": "sequential",
            "on_stage": "telemetry_on",
            "overhead_vs_sequential": telemetry_overhead,
            "results_identical": True,
        },
        "stream": {
            "records": stream_stage["records"],
            "peak_rss_mb": stream_stage["peak_rss_mb"],
        },
        "recovery": {
            "table_schemes": recovery_stage["table_schemes"],
            "campaign_cells": recovery_stage["campaign_cells"],
            "campaign_recovered": recovery_stage["campaign_recovered"],
        },
        "app_campaign": {
            "schemes": app_stage["schemes"],
            "plans_run": app_stage["plans_run"],
            "prune_ratio": app_stage["prune_ratio"],
            "crosschecks_sound": app_stage["crosschecks_sound"],
            "missed_mismatches": app_stage["missed_mismatches"],
        },
        "stages": [],
    }
    for stage, _ in stages:
        stage["speedup_vs_sequential"] = (
            round(seq_wall / stage["wall_seconds"], 3) if stage["wall_seconds"] > 0 else None
        )
        report["stages"].append(stage)
        print(
            f"  {stage['name']:12s} {stage['wall_seconds']:8.3f}s  "
            f"{stage['speedup_vs_sequential']:>7}x vs sequential  "
            f"hit rate {stage['cache_hit_rate']:.0%}  "
            f"{stage['jobs_per_second']:.1f} jobs/s"
        )
    report["stages"].append(engine_stage)
    speedups = engine_stage["speedups"]
    print(
        f"  {engine_stage['name']:12s} {engine_stage['wall_seconds']:8.3f}s  "
        f"{speedups['batched_vs_skip_ahead']:>7}x vs skip_ahead  "
        f"{speedups['batched_vs_stepped']}x vs stepped"
    )
    report["stages"].append(stream_stage)
    print(
        f"  {stream_stage['name']:12s} {stream_stage['wall_seconds']:8.3f}s  "
        f"{stream_stage['records']:,} ops at {stream_stage['peak_rss_mb']:.0f} MB peak RSS"
    )
    report["stages"].append(recovery_stage)
    print(
        f"  {recovery_stage['name']:12s} {recovery_stage['wall_seconds']:8.3f}s  "
        f"{len(recovery_stage['table_schemes'])} schemes tabled, "
        f"{recovery_stage['campaign_recovered']}/{recovery_stage['campaign_cells']} "
        "zoo campaign cells recovered"
    )
    report["stages"].append(app_stage)
    print(
        f"  {app_stage['name']:12s} {app_stage['wall_seconds']:8.3f}s  "
        f"{app_stage['plans_run']} plans for {app_stage['exhaustive_cells']} "
        f"exhaustive cells ({app_stage['prune_ratio']:.1%} pruned, "
        f"{app_stage['missed_mismatches']} missed mismatches)"
    )

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    args.out.write_text(payload, encoding="utf-8")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_perf.json").write_text(payload, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
