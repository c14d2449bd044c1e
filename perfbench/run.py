"""Benchmark runner: one command, one report.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload headline_cold --seed 1 --seconds 10 --trace 0

Each repetition runs in a fresh child process with empty, private caches
(:mod:`perfbench.rep`).  Repetitions repeat until ``--seconds`` have
passed, with at least :data:`MIN_REPS`; the end-to-end metrics are the
medians.  ``--trace 1`` adds one traced repetition whose spans give the
per-layer metrics; the untraced repetitions of the same run give the
tracing overhead and the host rates.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full report (manifest,
every repetition, the span table) goes to ``.perfbench_out/``, and a
traced run also writes its spans as Chrome/Perfetto JSON there.

``python3 perfbench/run.py --self-test`` runs the benchmark's own tests.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
MAX_REPS = 40
DEADLINE_S = 170.0
"""Every child must finish within this many seconds of the run's start."""


def _child_env(tmp: Path) -> Dict[str, str]:
    """The parent's environment minus every ``PLP_*`` knob, with all
    caches, ``HOME`` and ``TMPDIR`` inside the repetition's temp dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLP_")}
    env.update(
        PLP_TRACE_CACHE=str(tmp / "traces"),
        PLP_SWEEP_CACHE=str(tmp / "results"),
        PLP_CAMPAIGN_CACHE=str(tmp / "campaign"),
        HOME=str(tmp / "home"),
        TMPDIR=str(tmp),
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
    )
    return env


def run_rep(workload: str, seed: int, size: str, traced: bool, index: int, deadline: float) -> Dict:
    """One repetition in a fresh process; returns its JSON document."""
    tmp = OUT_DIR / "tmp" / f"{os.getpid()}-{index}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "home").mkdir(parents=True)
    out = tmp / "rep.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--child",
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", "1" if traced else "0",
        "--tmp", str(tmp),
        "--out", str(out),
    ]
    try:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd + ["--t0-ns", str(t0)],
            env=_child_env(tmp),
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"repetition {index} of {workload} ran past the deadline")
        finally:
            # Pool workers share the child's session; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"repetition {index} of {workload} exited {proc.returncode}:\n"
                + err.decode(errors="replace")[-4000:]
            )
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _declared() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def aggregate(untraced: List[Dict], traced: Optional[Dict], declared: Dict) -> Dict:
    """Medians, consistency checks and the final metric set."""
    problems: List[str] = []
    reps = untraced + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep.get("problems", [])]
    # Same seed, same code: every repetition must produce the same outputs,
    # and the traced repetition must match the untraced ones.
    reference = reps[0].get("digests")
    for i, rep in enumerate(reps[1:], start=1):
        if rep.get("digests") != reference or rep.get("hw") != reps[0].get("hw"):
            failed = min(attempted, failed + rep["attempted"])
            problems.append(f"rep {i}: outputs differ from rep 0")

    walls = [r["wall_s"] for r in untraced]
    e2e = {
        "setup_s": median(r["setup_s"] for r in untraced),
        "wall_s": median(walls),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }
    values: Dict[str, float] = {}
    if traced is None:
        names = declared["end_to_end"]
        values = e2e
    else:
        names = declared["per_layer"]
        first = untraced[0]
        values.update(traced.get("layers", {}))
        values.update(traced.get("hw", {}))
        values["paper_err"] = first.get("extra", {}).get("paper_err", 0.0)
        values["sim_minstr_per_s"] = median(
            r.get("sim_instructions", 0) / r["wall_s"] / 1e6 for r in untraced
        )
        values["failed_frac"] = failed / attempted
        # Each workload attempts a fixed number of items, so this is wall_s
        # restated as a rate; it is reported, not gated.
        values["cells_per_s"] = median(r["attempted"] / r["wall_s"] for r in untraced)
        values["trace.overhead"] = traced["wall_s"] / e2e["wall_s"]
    metrics = {}
    for metric in names:
        name = metric["name"]
        if name not in values:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "e2e": e2e,
    }


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="re-record golden.json from one full-size repetition per workload at the default seed",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import pytest

        return pytest.main(["-q", "-p", "no:cacheprovider", str(BENCH_DIR / "test_perfbench.py")])
    from perfbench.workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS

    if args.write_golden:
        golden = {}
        for name in WORKLOADS:
            rep = run_rep(name, DEFAULT_SEED, "full", False, 0, time.monotonic() + 600)
            golden[name] = rep["digests"]
            print(f"{name}: {len(rep['digests'])} digests")
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS or args.seed is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} and --seed is required")

    declared = _declared()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    untraced: List[Dict] = []
    last = 0.0
    while len(untraced) < MIN_REPS or (
        time.monotonic() - start < args.seconds
        and len(untraced) < MAX_REPS
        # Leave room for one more repetition (two when a traced one follows).
        and time.monotonic() + last * (1 + args.trace) * 1.5 < deadline
    ):
        began = time.monotonic()
        untraced.append(run_rep(args.workload, args.seed, args.size, False, len(untraced), deadline))
        last = time.monotonic() - began
    traced = None
    if args.trace:
        traced = run_rep(args.workload, args.seed, args.size, True, len(untraced), deadline)

    result = aggregate(untraced, traced, declared)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "manifest": untraced[0]["manifest"],
        "seconds": args.seconds,
        "result": {k: result[k] for k in ("correct", "attempted", "failed", "metrics", "problems")},
        "end_to_end": result["e2e"],
        "repetitions": [{k: v for k, v in r.items() if k != "chrome"} for r in untraced],
    }
    if traced is not None:
        report["traced"] = {k: v for k, v in traced.items() if k != "chrome"}
        report["predictions"] = json.loads((BENCH_DIR / "predictions.json").read_text())
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(traced["chrome"]), encoding="utf-8")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed}: {len(untraced)} repetitions"
          f"{' + 1 traced' if traced else ''}, report {OUT_DIR.name}/{stem}.json")
    for name, value in result["e2e"].items():
        print(f"  {name:14s} {value:.4f}")
    if traced is not None:
        wall = traced["accounting"]["traced_wall_s"]
        print(f"  traced wall {wall:.3f}s (tracing overhead "
              f"{result['metrics']['trace.overhead']['value']:.3f}x); self time by span:")
        table = sorted(traced["span_table"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in table:
            print(f"    {name:20s} {row['self_s']:9.4f}s {row['self_s'] / wall:7.1%}  x{row['count']}")
        for name, row in sorted(traced["worker_span_table"].items()):
            print(f"    {name:20s} {row['self_s']:9.4f}s in pool workers  x{row['count']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        from perfbench.rep import main as rep_main

        sys.exit(rep_main(sys.argv[2:]))
    sys.exit(main(sys.argv[1:]))
