"""The benchmark's four workloads.

Each workload is a single-process closed loop (the next job starts when
the previous one returns) built from the seed alone.  A workload has
three phases, run by :mod:`perfbench.rep` in one fresh process:

* ``build(seed, size, tmp)`` — inputs and job/scenario lists (set-up);
* ``run(ctx)`` — the timed part, calling the program's entry points
  exactly as a user script would;
* ``check(ctx, out)`` — output checks and the simulated counters,
  outside the timed part; :mod:`perfbench.rep` then compares the
  output digests with ``golden.json`` where one applies.

``size`` is ``"full"`` (the measured benchmark) or ``"tiny"`` (the
self-test smoke).  Golden digests exist only for the full size at
:data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

DEFAULT_SEED = 1
"""Seed whose outputs are pinned by ``golden.json``."""

HEADLINE_SCHEMES = ("secure_wb", "unordered", "sp", "pipeline", "o3", "coalescing")
# Paper §VII geomean slowdowns over secure_WB, as in
# benchmarks/bench_headline_overheads.py (``PAPER``, ``PAPER_FULL``).
PAPER = {"sp": 8.2, "pipeline": 3.1, "o3": 1.207, "coalescing": 1.202}
PAPER_FULL = {"sp": 30.7, "pipeline": 6.9, "o3": 2.42, "coalescing": 2.35}

SUBSET = ("gamess", "bwaves", "gcc", "milc", "zeusmp")
KNOB_SCHEMES = ("sp", "pipeline", "o3", "coalescing")
WPQ_ENTRIES = (4, 8, 16, 32, 64)
ETT_ENTRIES = (1, 2)
STREAM_SCHEMES = ("sp", "coalescing")

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of every ``SimResult`` field, ``stats`` included."""
    return digest(asdict(result))


def load_golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def hw_counts(results) -> Dict[str, int]:
    """Simulated counters summed over ``SimResult`` objects."""
    out = {
        "hw.persists": 0,
        "hw.node_updates": 0,
        "hw.bmt_misses": 0,
        "hw.wpq_stall_cycles": 0,
        "hw.ctr_misses": 0,
        "hw.mac_misses": 0,
    }
    for r in results:
        out["hw.persists"] += r.persists
        out["hw.node_updates"] += r.node_updates
        out["hw.bmt_misses"] += r.bmt_cache_misses
        out["hw.wpq_stall_cycles"] += int(r.stats.get("core.wpq_stall_cycles", 0))
        out["hw.ctr_misses"] += int(r.stats.get("ctr.misses", 0))
        out["hw.mac_misses"] += int(r.stats.get("mac.misses", 0))
    return out


@dataclass
class Outcome:
    """What ``check`` found: counts, digests and simulated numbers."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    sim_instructions: int = 0
    hw: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)

    def compare_golden(self, golden: List[str]) -> None:
        """Digest comparison: with one digest per attempted item each
        differing item fails, otherwise any difference fails them all."""
        if len(golden) != len(self.digests):
            self.fail(self.attempted, f"golden has {len(golden)} digests, run has {len(self.digests)}")
            return
        bad = [i for i, (g, d) in enumerate(zip(golden, self.digests)) if g != d]
        if bad:
            count = len(bad) if len(self.digests) == self.attempted else self.attempted
            self.fail(count, f"{len(bad)} output digests differ from golden (first: item {bad[0]})")


def _cold_guard(out: Outcome, report, label: str) -> None:
    """Fail the run if a cold workload silently read a warm cache."""
    import repro.sweep.runner as runner

    disk = runner._disk_trace_cache
    if disk is None:
        out.fail(out.attempted, f"{label}: the on-disk trace cache was disabled")
    elif disk.hits:
        out.fail(out.attempted, f"{label}: {disk.hits} trace-cache hits in a cold run")
    if report.cache_hits:
        out.fail(out.attempted, f"{label}: {report.cache_hits} result-cache hits in a cold run")


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class _Sweep:
    """The two ``run_jobs`` workloads: one inline sweep through the
    default (private, empty) trace and result caches."""

    golden_any_seed = False

    def run(self, ctx):
        import repro.sweep.runner as runner

        return runner.run_jobs(ctx["jobs"], workers=ctx["workers"], cache=True)

    def _outcome(self, ctx, out_pair) -> Outcome:
        results, report = out_pair
        jobs = ctx["jobs"]
        out = Outcome(attempted=len(jobs))
        _cold_guard(out, report, self.name)
        out.digests = [result_digest(r) for r in results]
        out.sim_instructions = _sim_instructions(jobs)
        out.hw = hw_counts(results)
        return out


# ----------------------------------------------------------------------
# headline_cold
# ----------------------------------------------------------------------


class HeadlineCold(_Sweep):
    name = "headline_cold"
    sizes = {"full": {"ki": 25, "profiles": None}, "tiny": {"ki": 10, "profiles": None}}

    def build(self, seed: int, size: str, tmp: Path):
        from repro.sweep.runner import SweepJob
        from repro.workloads.spec_profiles import SPEC_PROFILES

        p = self.sizes[size]
        profiles = list(SPEC_PROFILES)[: p["profiles"]]
        jobs = [
            SweepJob.make(name, scheme, p["ki"], seed, protect_stack=stack)
            for stack in (False, True)
            for name in profiles
            for scheme in HEADLINE_SCHEMES
        ]
        return {"jobs": jobs, "profiles": profiles, "ki": p["ki"], "seed": seed, "workers": 1}

    def check(self, ctx, out_pair) -> Outcome:
        results = out_pair[0]
        out = self._outcome(ctx, out_pair)
        per_tier = len(ctx["profiles"]) * len(HEADLINE_SCHEMES)
        errors = []
        for tier, paper in enumerate((PAPER, PAPER_FULL)):
            chunk = results[tier * per_tier : (tier + 1) * per_tier]
            row = {}
            for s_index, scheme in enumerate(HEADLINE_SCHEMES[1:], start=1):
                row[scheme] = _geomean(
                    chunk[i + s_index].slowdown_vs(chunk[i])
                    for i in range(0, per_tier, len(HEADLINE_SCHEMES))
                )
            label = ("default", "full")[tier]
            for key, value in row.items():
                out.extra[f"geomean.{label}.{key}"] = value
            if not row["sp"] > row["pipeline"] > row["o3"]:
                out.fail(3 * len(ctx["profiles"]), f"{label} tier: not sp > pipeline > o3: {row}")
            if not row["coalescing"] <= row["o3"] * 1.02:
                out.fail(2 * len(ctx["profiles"]), f"{label} tier: coalescing > o3 x 1.02: {row}")
            errors += [abs(math.log(row[s] / paper[s])) for s in paper]
        out.extra["paper_err"] = sum(errors) / len(errors)
        return out


def _sim_instructions(jobs) -> int:
    """Simulated instructions of every job, warm-up included."""
    import repro.sweep.runner as runner

    return sum(
        runner.cached_profile_trace(j.benchmark, j.kilo_instructions, j.seed).instruction_count
        for j in jobs
    )


# ----------------------------------------------------------------------
# knob_sweep
# ----------------------------------------------------------------------


class KnobSweep(_Sweep):
    name = "knob_sweep"
    sizes = {"full": {"ki": 25, "profiles": SUBSET}, "tiny": {"ki": 2, "profiles": SUBSET[:2]}}

    def build(self, seed: int, size: str, tmp: Path):
        from repro.sweep.runner import SweepJob

        p = self.sizes[size]
        jobs = [
            SweepJob.make(name, scheme, p["ki"], seed, wpq_entries=wpq, ett_entries=ett)
            for name in p["profiles"]
            for scheme in KNOB_SCHEMES
            for wpq in WPQ_ENTRIES
            for ett in ETT_ENTRIES
        ]
        return {"jobs": jobs, "ki": p["ki"], "seed": seed, "workers": 1}

    def check(self, ctx, out_pair) -> Outcome:
        out = self._outcome(ctx, out_pair)
        # The knobs are timing-only: one trace keeps one instruction count.
        seen: Dict[str, int] = {}
        for job, result in zip(ctx["jobs"], out_pair[0]):
            if seen.setdefault(job.benchmark, result.instructions) != result.instructions:
                out.fail(1, f"{job.benchmark}/{job.scheme}: instruction count varies across knobs")
        return out


# ----------------------------------------------------------------------
# stream_long
# ----------------------------------------------------------------------


class StreamLong:
    name = "stream_long"
    golden_any_seed = False
    sizes = {"full": {"ki": 3400}, "tiny": {"ki": 40}}

    def build(self, seed: int, size: str, tmp: Path):
        from repro.core.schemes import UpdateScheme
        from repro.system.config import SystemConfig
        from repro.workloads.synthetic import SyntheticSpec, stream_trace, synthetic_ops

        ki = self.sizes[size]["ki"]
        path = tmp / "stream_long.plptrace"
        spec = SyntheticSpec(name="stream_long", kilo_instructions=ki, seed=seed)
        ops = stream_trace(str(path), synthetic_ops(spec))
        configs = [SystemConfig().variant(scheme=UpdateScheme.from_name(s)) for s in STREAM_SCHEMES]
        return {"path": path, "ops": ops, "ki": ki, "seed": seed, "workers": 1, "configs": configs}

    def run(self, ctx):
        from repro.system.timing import TraceSimulator
        from repro.workloads.trace import TraceReader

        results = []
        for config in ctx["configs"]:
            with TraceReader(ctx["path"]) as reader:
                results.append(TraceSimulator(config).run_stream(reader))
        return results

    def check(self, ctx, results) -> Outcome:
        from repro.workloads.trace import TraceReader

        out = Outcome(attempted=len(results))
        out.digests = [result_digest(r) for r in results]
        with TraceReader(ctx["path"]) as reader:
            summary = reader.summary()
        out.sim_instructions = summary.instruction_count * len(results)
        out.hw = hw_counts(results)
        sp, coalescing = results
        if summary.record_count != ctx["ops"]:
            out.fail(out.attempted, "trace header disagrees with the writer's op count")
        if sp.instructions != coalescing.instructions or not sp.instructions:
            out.fail(out.attempted, "schemes disagree on the measured instruction window")
        if not sp.cycles > coalescing.cycles:
            out.fail(1, f"sp ({sp.cycles} cycles) not slower than coalescing ({coalescing.cycles})")
        return out


# ----------------------------------------------------------------------
# crash_campaign
# ----------------------------------------------------------------------


class CrashCampaign:
    name = "crash_campaign"
    # The grid is fixed; the seed only orders submission.
    golden_any_seed = True
    sizes = {"full": {"app_workloads": None}, "tiny": {"app_workloads": ("smoke",)}}

    def build(self, seed: int, size: str, tmp: Path):
        from repro.app.kvstore import IDIOMS
        from repro.app.workloads import APP_WORKLOADS
        from repro.campaign import APP_CAMPAIGN_SCHEMES, enumerate_grid

        grid = enumerate_grid()
        if size == "tiny":
            grid = grid[::40]
        names = self.sizes[size]["app_workloads"] or sorted(APP_WORKLOADS)
        order = list(range(len(grid)))
        random.Random(seed).shuffle(order)
        roster = [(s, i, w) for s in APP_CAMPAIGN_SCHEMES for i in IDIOMS for w in names]
        return {
            "grid": grid,
            "order": order,
            "roster": roster,
            "seed": seed,
            "workers": 2,
            # Table I/II rows need the whole grid.
            "tables": size == "full",
        }

    def run(self, ctx):
        import repro.analysis.campaign as analysis
        import repro.campaign.plans as plans
        import repro.campaign.runner as runner

        grid = ctx["grid"]
        order = ctx["order"]
        shuffled, report = runner.run_campaign(
            [grid[i] for i in order], workers=ctx["workers"], cache=True
        )
        cells = [None] * len(grid)
        for position, index in enumerate(order):
            cells[index] = shuffled[position]
        plan_sets = [plans.generate_plans(s, i, w) for s, i, w in ctx["roster"]]
        scenarios = [plan.scenario for ps in plan_sets for plan in ps.plans]
        app_cells, app_report = runner.run_app_campaign(
            scenarios, workers=ctx["workers"], cache=True
        )
        verdict = None
        try:
            analysis.verify_campaign(cells, require_tables=ctx["tables"])
            analysis.verify_campaign(app_cells, require_tables=False)
        except analysis.CampaignViolation as violation:
            verdict = str(violation)
        tables = (
            analysis.summarize(cells).render(),
            analysis.summarize_app(app_cells, plan_sets).render(),
        )
        return {
            "cells": cells,
            "app_cells": app_cells,
            "plan_sets": plan_sets,
            "reports": (report, app_report),
            "verdict": verdict,
            "tables": tables,
        }

    def check(self, ctx, out_run) -> Outcome:
        cells, app_cells = out_run["cells"], out_run["app_cells"]
        out = Outcome(attempted=len(cells) + len(app_cells), hw=hw_counts(()))
        for report in out_run["reports"]:
            if report.cache_hits:
                out.fail(out.attempted, f"{report.cache_hits} cell-cache hits in a fresh cache")
        if out_run["verdict"] is not None:
            # One line per violation after the "N campaign violation(s):" header.
            lines = out_run["verdict"].splitlines()
            out.fail(max(1, len(lines) - 1), lines[0])
        plan_sets = out_run["plan_sets"]
        exhaustive = sum(ps.exhaustive_cells for ps in plan_sets)
        out.extra["plans.run"] = len(app_cells)
        out.extra["plans.prune_ratio"] = sum(ps.skipped_cells for ps in plan_sets) / exhaustive
        out.extra["campaign.cells"] = len(cells)
        out.digests = [
            digest([asdict(c) for c in cells]),
            digest([asdict(c) for c in app_cells]),
            digest(list(out_run["tables"])),
        ]
        return out


WORKLOADS = {w.name: w for w in (HeadlineCold(), KnobSweep(), StreamLong(), CrashCampaign())}
