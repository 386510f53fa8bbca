"""Sharded-vs-serial convergence soak for the serve layer.

The acceptance bar of the serving tier, runnable from CI: an N-shard
:class:`~repro.serve.FleetService` replaying the chaos soak's 50-truck
synthetic day — with workers killed mid-run, both by the seeded
``serve.worker`` chaos site and by an explicit mid-replay SIGKILL —
must produce final verdicts identical to a serial
:class:`~repro.stream.FleetSessionManager` replay: same pair, same
confidence, same provenance tier, distributions allclose at rtol 1e-9
(the same convergence predicate the chaos soak uses).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..chaos.core import ChaosEngine, FaultSpec
# Reusing the chaos soak's fixtures and its convergence predicate keeps
# the two soaks honest about meaning the same thing.
from ..chaos.soak import (build_soak_fleet_data, final_verdicts,
                          tiny_detector, verdict_digest, verdicts_match)
from ..stream.fleet import FleetConfig, FleetSessionManager
from ..stream.replay import dataset_ping_stream
from .config import ServeConfig
from .service import FleetService

__all__ = ["run_serve_soak", "format_serve_soak"]

#: Pings per submit batch; ticks land every other batch, matching the
#: chaos soak's cadence of one tick per 400 pings.
_BATCH_PINGS = 200


def run_serve_soak(*, seed: int = 7, data_seed: int = 13,
                   num_trajectories: int = 50, num_trucks: int = 20,
                   num_shards: int = 4, backend: str = "process",
                   fit_detector: bool = True, kill_shard: int | None = None,
                   workdir: str | Path | None = None) -> dict:
    """Run the sharded service under fire and diff it against serial.

    Returns a JSON-safe report; ``report["ok"]`` is the verdict-for-
    verdict convergence result.  ``kill_shard`` additionally SIGKILLs
    that shard's worker at the replay midpoint (the CI shard-kill
    drill); the seeded chaos site may kill others on top.
    """
    world, dataset = build_soak_fleet_data(
        data_seed=data_seed, num_trajectories=num_trajectories,
        num_trucks=num_trucks)
    pings = dataset_ping_stream(dataset.samples)
    detector = (tiny_detector(world, dataset.samples)
                if fit_detector else None)

    serial = FleetSessionManager(detector, FleetConfig())
    baseline = final_verdicts(serial, pings)

    if workdir is None:
        scratch = tempfile.TemporaryDirectory(prefix="serve-soak-")
        root = Path(scratch.name)
    else:
        scratch = None
        root = Path(workdir)
    specs = [FaultSpec(site="serve.worker", kind="kill", rate=0.1,
                       max_fires=2)]
    batches = [pings[i:i + _BATCH_PINGS]
               for i in range(0, len(pings), _BATCH_PINGS)]
    midpoint = len(batches) // 2
    config = ServeConfig(num_shards=num_shards, backend=backend,
                         checkpoint_dir=root / "shards",
                         checkpoint_every=8)
    rejected_total = 0
    killed = False
    try:
        with FleetService(detector, config=config) as service:
            with ChaosEngine(seed=seed, specs=specs):
                for index, batch in enumerate(batches):
                    if index == midpoint and kill_shard is not None:
                        killed = service.kill_worker(shard=kill_shard)
                    result = service.submit(batch)
                    while result.rejected:
                        rejected_total += result.rejected
                        service.wait()
                        result = service.submit(result.rejected_pings)
                    if index % 2 == 1:
                        service.tick()
                service.tick()
                sharded = {(v.truck_id, v.day): v
                           for v in service.drain()}
                stats = service.stats()
    finally:
        if scratch is not None:
            scratch.cleanup()

    mismatches = sorted(
        f"{key[0]}|{key[1]}"
        for key in set(baseline) | set(sharded)
        if key not in baseline or key not in sharded
        or not verdicts_match(sharded[key], baseline[key]))
    return {
        "ok": not mismatches,
        "num_shards": num_shards,
        "backend": backend,
        "num_pings": len(pings),
        "num_verdicts": len(sharded),
        "mismatches": mismatches,
        "restarts": stats["frontend"]["restarts"],
        "barriers": stats["frontend"]["barriers"],
        "rejected_pings": rejected_total,
        "kill_shard": kill_shard,
        "killed_midpoint": killed,
        "serial_digest": verdict_digest(baseline),
        "sharded_digest": verdict_digest(sharded),
    }


def format_serve_soak(report: dict) -> str:
    """A terminal summary of one serve soak report."""
    lines = [
        f"serve soak: {report['num_shards']} shards "
        f"({report['backend']}), {report['num_pings']} pings, "
        f"{report['num_verdicts']} final verdicts",
        f"  restarts={report['restarts']}  barriers={report['barriers']}"
        f"  rejected_pings={report['rejected_pings']}"
        f"  kill_shard={report['kill_shard']}",
        f"  serial  digest {report['serial_digest'][:16]}…",
        f"  sharded digest {report['sharded_digest'][:16]}…",
    ]
    if report["mismatches"]:
        lines.append("  MISMATCHED sessions: "
                     + ", ".join(report["mismatches"]))
    lines.append("  converged: " + ("yes" if report["ok"] else "NO"))
    return "\n".join(lines)
