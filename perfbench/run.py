"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 10 --trace 0

Prints the environment, the feed digest, one line per metric with its
unit, notes with the sample count behind every percentile, and as the
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  A traced run also writes its
spans to ``perfbench/traces/<workload>-<seed>.jsonl``.  Exits 1 when a
correctness check fails.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec  # noqa: E402


def run(workload: str, seed: int, seconds: float, traced: bool,
        sizes: spec.Sizes = spec.FULL):
    """Set up ``sizes.setups`` times, generate the inputs, run once.

    Returns ``(outcome, metrics)`` where ``metrics`` holds exactly the
    metric names the run reports.
    """
    from perfbench.fixture import (environment, peak_rss_mb, set_up,
                                   workload_inputs)
    from perfbench.workloads import WORKLOAD_RUNNERS

    timings = []
    for _ in range(sizes.setups):
        fixture, timing = set_up(sizes)
        timings.append(timing)
    start = perf_counter()
    if workload == "audit":
        fixture.inputs = workload_inputs(fixture, seed, sizes.audit_trucks,
                                         sizes.audit_days)
    else:
        fixture.inputs = workload_inputs(fixture, seed, sizes.feed_trucks,
                                         sizes.feed_days(seconds))
    inputs_s = perf_counter() - start
    outcome = WORKLOAD_RUNNERS[workload](fixture, seconds, traced, sizes)
    found = outcome.metrics
    found["setup_s"] = statistics.median(t["setup_s"] for t in timings)
    for part in ("generate_s", "fit_s"):
        found[f"setup.{part}"] = statistics.median(t[part] for t in timings)
    found["completed_share"] = 1.0 - outcome.failed / outcome.attempted
    found["peak_rss_mb"] = peak_rss_mb()
    names = [m[0] for m in (spec.PER_LAYER if traced else spec.END_TO_END)]
    # A layer the workload does not reach reports 0.
    metrics = {name: float(found.get(name, 0.0)) for name in names}
    outcome.notes.insert(0, "setups: " + ", ".join(
        f"{t['setup_s']:.2f} s" for t in timings))
    outcome.notes.insert(0, f"inputs: generated in {inputs_s:.2f} s, "
                            f"digest {fixture.inputs.digest()}")
    outcome.notes.insert(0, f"environment: {json.dumps(environment())}")
    if traced:
        outcome.tracer.write(
            ROOT / "perfbench" / "traces" / f"{workload}-{seed}.jsonl",
            {"workload": workload, "seed": seed, "seconds": seconds,
             "environment": environment(), "metrics": metrics})
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        spec.write_benchmark_json()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    outcome, metrics = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for note in outcome.notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {spec.UNITS[name]}")
    print(json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
