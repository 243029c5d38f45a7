"""Run one aqcc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload structure-25 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the benchmark imports ``aqcc`` from
``src/`` next to this directory and refuses to run without it.

With ``--trace 0`` it measures the end-to-end metrics: set-up time (fresh
interpreter to ``import aqcc`` done, median of several), the time of the
workload's fixed item set rescaled to a reference machine speed by
``speed.SpeedProbe``, the share of exact distance statements and peak
memory; it also prints the plain wall time and median, interquartile-mean
and maximum item times.
With ``--trace 1`` it runs the workload with the tracer installed and
prints per-layer metrics instead.
Each run repeats the whole item set until ``--seconds`` have passed (at
least once) and reports medians over those passes.  Every item's output is
checked; the last line of standard output is one JSON object with the
results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

# fresh-interpreter imports timed before the workload and again after it,
# so that the median of a run spans the machine's speed over the run
SETUP_SAMPLES = 5
IMPORT_LIMIT_S = 60


@dataclass
class ItemResult:
    name: str
    seconds: float
    ok: bool
    detail: str = ""
    decided: int = 0
    statements: int = 0
    ref_seconds: float = 0.0


def run_pass(items, tracer=None, probe=None) -> list[ItemResult]:
    """Run every item once, in order, timing only the call into aqcc.

    With a speed probe running, each item's time is its own time (probes
    taken out) and its time in reference seconds is recorded too.
    """
    from workloads import CheckFailed

    gc.collect()
    results, spans = [], []
    for item in items:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.item_span(item.name):
                    out = item.run()
        except Exception as exc:  # one broken item must not hide the others
            spans.append((start, time.perf_counter()))
            results.append(ItemResult(item.name, 0.0, False,
                                      f"raised {type(exc).__name__}: {exc}"))
            continue
        spans.append((start, time.perf_counter()))
        try:
            outcome = item.check(out)
        except (CheckFailed, AttributeError, KeyError, TypeError, ValueError) as exc:
            results.append(ItemResult(item.name, 0.0, False,
                                      f"wrong output: {type(exc).__name__}: {exc}"))
            continue
        results.append(ItemResult(item.name, 0.0, True, "",
                                  outcome.decided, outcome.statements))
    for r, (start, end) in zip(results, spans):
        if probe is None:
            r.seconds = r.ref_seconds = end - start
        else:
            r.seconds, r.ref_seconds = probe.scaled(start, end)
    return results


def run_passes(items, seconds: float, make_tracer=None):
    """Whole passes until `seconds` have elapsed; at least one.

    Untraced passes run under a speed probe; traced ones do not, since the
    tracer's own cost already changes their time.
    """
    from speed import SpeedProbe

    passes, tracers = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if make_tracer is None:
            with SpeedProbe() as probe:
                passes.append(run_pass(items, probe=probe))
            print(f"speed probe, pass {len(passes)}: {probe.summary()}")
        else:
            with make_tracer() as tracer:
                passes.append(run_pass(items, tracer))
            tracers.append(tracer)
    return passes, tracers


def time_imports(count: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) from a fresh interpreter to `import aqcc` done.

    The benchmark and each child are held to one CPU while this runs, and
    the speed probe runs just before and just after each child, so the
    rescaling measures the CPU the child ran on.  The time limit is an
    alarm, not ``subprocess.run(timeout=...)``: with a timeout, the wait
    polls in sleeps of up to 50 ms, which rounds every spawn to that step.
    """
    from speed import speed_now

    def expire(signum, frame):
        raise TimeoutError(f"{count} imports of aqcc took over {IMPORT_LIMIT_S} s")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(IMPORT_LIMIT_S)
    times = []
    try:
        for _ in range(count):
            before = speed_now()
            start = time.perf_counter()
            # run() kills the child if the alarm fires while it waits
            subprocess.run([sys.executable, "-c", "import aqcc"], cwd=ROOT, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            seconds = time.perf_counter() - start
            times.append((seconds, seconds * (before + speed_now()) / 2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        os.sched_setaffinity(0, cpus)
    return times


def read_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, why: str, seed: int) -> dict:
    import numpy

    from workloads import ROADMAP_MAP

    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "loop": "closed, one caller, items one after another, no threads",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": read_commit(),
        "roadmap": ROADMAP_MAP,
    }


def summarize(passes) -> tuple[dict, int, int]:
    """Reference-speed times and decided share over all passes, attempted, failed.

    Times are in reference seconds (see ``speed``).  The plain wall time is
    printed, not reported: on a shared machine one pass's wall time swings
    by a quarter or more from run to run.
    """
    per_item = [statistics.median(p[i].ref_seconds for p in passes) for i in range(len(passes[0]))]
    names = [r.name for r in passes[0]]
    flat = [r for p in passes for r in p]
    decided = sum(r.decided for r in flat)
    statements = sum(r.statements for r in flat)
    slowest = max(range(len(per_item)), key=per_item.__getitem__)
    ranked = sorted(per_item)
    trim = len(ranked) // 4
    print(f"items: {len(names)} per pass, {len(passes)} pass(es); "
          f"item_p50_ref_s = {statistics.median(per_item):.6g} s; "
          f"item_iqm_ref_s = {statistics.mean(ranked[trim:len(ranked) - trim]):.6g} s; "
          f"slowest item: {names[slowest]}; "
          f"exact distance statements: {decided}/{statements}")
    print(f"wall_s = {statistics.median(sum(r.seconds for r in p) for p in passes):.6g} s "
          "(wall time of a pass, median over passes)")
    metrics = {
        "wall_ref_s": (statistics.median(sum(r.ref_seconds for r in p) for p in passes), "s"),
        "item_max_ref_s": (per_item[slowest], "s"),
        "decided_frac": (decided / statements if statements else 0.0, "ratio"),
    }
    return metrics, len(flat), sum(not r.ok for r in flat)


def print_items(passes) -> None:
    for r in passes[0]:
        mark = "ok  " if r.ok else "FAIL"
        print(f"  {r.seconds:9.4f} s  {r.ref_seconds:9.4f} ref s  {mark}  {r.name}"
              + (f"  -- {r.detail}" if r.detail else ""))
    for i, p in enumerate(passes[1:], start=2):
        for r in p:
            if not r.ok:
                print(f"  pass {i}: FAIL {r.name} -- {r.detail}")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK_JSON.read_text())["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating the item set until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aqcc" / "__init__.py").is_file():
        print(f"perfbench: no aqcc sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aqcc

    if Path(aqcc.__file__).resolve().parent != (SRC / "aqcc").resolve():
        print(f"perfbench: imported aqcc from {aqcc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import build_items

    items = build_items(args.workload, args.seed)
    print("context: " + json.dumps(context(args.workload, why[args.workload], args.seed)))

    if args.trace:
        from tracer import LAYER_TARGETS, Tracer, layer_metrics, wrapper_costs

        passes, tracers = run_passes(items, args.seconds, Tracer)
        print_items(passes)
        plain, attempted, failed = summarize(passes)
        span_cost, op_cost = wrapper_costs()
        first = tracers[0]
        metrics = layer_metrics(first)
        metrics["trace.overhead_s"] = (len(first.spans) * span_cost + first.scalar_ops * op_cost, "s")
        print(f"traced wall_s = {plain['wall_ref_s'][0]:.6g} s; {len(first.spans)} spans at "
              f"{span_cost * 1e6:.3f} us, {first.scalar_ops} scalar ops at {op_cost * 1e6:.3f} us")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}  -> {LAYER_TARGETS.get(name, '')}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        first.write_spans(spans_path)
        print(f"spans of the first traced pass: {os.path.relpath(spans_path, ROOT)}")
    else:
        setup = time_imports(SETUP_SAMPLES)
        passes, _ = run_passes(items, args.seconds)
        setup += time_imports(SETUP_SAMPLES)
        print_items(passes)
        metrics, attempted, failed = summarize(passes)
        print(f"setup wall = {statistics.median(t for t, _ in setup):.6g} s "
              f"(median of {len(setup)}, not rescaled)")
        metrics = {"setup_s": (statistics.median(r for _, r in setup), "s"), **metrics,
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
        print_metrics(metrics)

    print(f"error_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
