"""What the benchmark measures: workloads, load model, metric names.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and the tests check that the
two agree, so a metric is renamed in one place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

RUN_SECONDS = 30


@dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    #: Trucks of the live feed; each drives one truck-day per feed day.
    #: Many trucks per tick and several days of shift ends keep the
    #: latency tails steady from seed to seed: 60 trucks over 3 days
    #: spread about half as much as 80 over 2 or 40 over 4.
    feed_trucks: int = 60
    #: Wall seconds per feed day in the live open loop: a run of
    #: ``--seconds s`` replays ``max(1, round(0.8 * s / seconds_per_day))``
    #: days (3 at the default 30 s: 180 truck-days, about 71 ticks), which
    #: leaves time for the closed-loop passes over the same feed.
    seconds_per_day: float = 9.0
    #: The audit's fleet: trucks per fleet day, and fleet days.
    audit_trucks: int = 120
    audit_days: int = 4
    #: Labelled truck-days the model trains on during set-up.
    train_days: int = 96
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3

    def feed_days(self, seconds: float) -> int:
        return max(1, round(0.8 * seconds / self.seconds_per_day))

    @property
    def live_speedup(self) -> float:
        """Feed seconds replayed per wall second in the open loop."""
        return 86400.0 / self.seconds_per_day


FULL = Sizes()
#: The size the benchmark's own tests run at.
TINY = Sizes(feed_trucks=4, seconds_per_day=1.0, audit_trucks=4,
             audit_days=2, train_days=12, setups=1)

#: The world and the training days are the same in every run, so every
#: run fits the same model; the workload seed drives only the inputs.
WORLD_SEED = 7
TRAIN_SEED = 1_000_003

#: Feed-time cadence of the live feed (seconds).
SLOT_S = 300.0        # pings are handed over in 5-minute slots
TICK_S = 3600.0       # tick() once an hour
SCRAMBLE_WINDOW = 4   # <= FleetConfig.reorder_capacity (16)
#: Shards of the FleetService pass in the traced live run.
SERVE_SHARDS = 2

#: Why each workload exists, with its load model and nearest legacy
#: metric (perfbench/README.md has the long form).
WORKLOADS = {
    "audit": ("Offline audit: detect_batch once per fleet day, caches "
              "cold, closed loop, 1 caller; big batches in processing, "
              "features, encoding, detection. Legacy: detect_batch_tps"),
    "live": ("Per-ping ingest into one FleetSessionManager, open loop at "
             "9600x feed time (~30% busy), hourly ticks, flush at first "
             "tick after last ping; 3 closed passes. Legacy: "
             "stream_tick_sps"),
}

#: (name, unit, better, bound) of every end-to-end metric.  A bound is
#: the share of the parent's median a metric may worsen by.  On a shared
#: 2-core machine identical set-ups differ by 10-30% between runs, so
#: most bounds sit at the largest allowed share; ``completed_share`` is 1
#: unless something fails.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("truckdays_per_s", "truck-days/s", "higher", 0.25),
    ("capacity_pps", "pings/s", "higher", 0.25),
    ("verdict_p50_s", "s", "lower", 0.25),
    ("verdict_p90_s", "s", "lower", 0.25),
    ("final_p50_s", "s", "lower", 0.25),
    ("final_p90_s", "s", "lower", 0.25),
    ("accuracy", "fraction", "higher", 0.25),
    ("completed_share", "fraction", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

#: (name, unit, better) of every per-layer metric (traced run).
PER_LAYER = (
    ("setup.generate_s", "s", "lower"),
    ("setup.fit_s", "s", "lower"),
    ("processing.busy_s", "s", "lower"),
    ("processing.points", "count", "lower"),
    ("processing.stay_points", "count", "lower"),
    ("processing.candidates", "count", "lower"),
    ("features.busy_s", "s", "lower"),
    ("features.segments", "count", "lower"),
    ("features.cache_hit_ratio", "fraction", "higher"),
    ("encoding.busy_s", "s", "lower"),
    ("encoding.calls", "count", "lower"),
    ("encoding.candidates", "count", "lower"),
    ("detection.forward_s", "s", "lower"),
    ("detection.backward_s", "s", "lower"),
    ("detection.merge_s", "s", "lower"),
    ("detection.subgroup_cells", "count", "lower"),
    ("pipeline.detect_batch_s", "s", "lower"),
    ("pipeline.unattributed_share", "fraction", "lower"),
    ("pipeline.detect_many_s", "s", "lower"),
    ("pipeline.detect_many_calls", "count", "lower"),
    ("pipeline.batch_mean", "count", "higher"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.ingest_calls", "count", "lower"),
    ("stream.tick_s", "s", "lower"),
    ("stream.tick_self_s", "s", "lower"),
    ("stream.flush_s", "s", "lower"),
    ("stream.redetect_ratio", "fraction", "lower"),
    ("serve.start_s", "s", "lower"),
    ("serve.capacity_pps", "pings/s", "higher"),
    ("serve.submit_s", "s", "lower"),
    ("serve.tick_s", "s", "lower"),
    ("serve.flush_s", "s", "lower"),
    ("serve.rejected_pings", "count", "lower"),
    ("serve.restarts", "count", "lower"),
    ("loadgen.max_late_s", "s", "lower"),
    ("loadgen.busy_share", "fraction", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.overhead_iqr_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_benchmark_json() -> None:
    BENCHMARK_JSON.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
