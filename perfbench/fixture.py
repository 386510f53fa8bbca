"""Set-up and inputs: the synthetic world, the fitted model, the feed.

A set-up builds the world and the training days from fixed seeds and
fits the model (``LEAD.fit`` is deterministic, so every run scores with
the same model).  The workload's inputs are generated once per run from
the workload seed, outside the timed set-ups: they are what the program
receives, not part of starting it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.api import (LEAD, DatasetConfig, LEADConfig, SyntheticWorld,
                       WorldConfig, dataset_ping_stream, generate_dataset)
from repro.detection import DetectorTrainingConfig
from repro.encoding import AutoencoderTrainingConfig
from repro.eval import prepare_test_set
from repro.stream import scramble_stream

from .spec import (SCRAMBLE_WINDOW, SLOT_S, TICK_S, TRAIN_SEED, WORLD_SEED,
                   Sizes)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def lead_config() -> LEADConfig:
    """Default architecture, small fixed training budget."""
    return LEADConfig(
        encoder_training=AutoencoderTrainingConfig(
            epochs=2, learning_rate=3e-3, batch_size=8, patience=3,
            max_samples_per_epoch=40, seed=7),
        detector_training=DetectorTrainingConfig(
            epochs=2, learning_rate=3e-3, batch_size=4, patience=4, seed=7),
        max_autoencoder_samples=80,
        seed=7)


def day_index(day: str) -> int:
    """``generate_dataset`` names a truck's k-th day ``<start>+k``."""
    return int(day.rsplit("+", 1)[1])


@dataclass
class Step:
    """One moment of the feed schedule, in feed seconds."""

    due: float
    start: int                       # pings[start:stop] arrive now
    stop: int
    tick: bool
    flush: tuple = ()                # truck-day keys finalized after it


@dataclass
class Inputs:
    """Everything the workloads hand to the program, plus the labels."""

    raw: list                        # every truck-day's raw trajectory
    fleet_days: list                 # raw trajectories grouped by day
    labels: dict                     # (truck_id, day) -> labelled pair
    pings: list                      # the reordered live feed
    steps: list                      # the feed schedule

    @property
    def keys(self) -> list:
        return [(str(t.truck_id), str(t.day)) for t in self.raw]

    def digest(self) -> str:
        """SHA-256 over the feed and its schedule."""
        h = hashlib.sha256()
        for p in self.pings:
            h.update(f"{p.truck_id}|{p.day}|{p.lat!r}|{p.lng!r}|{p.t!r}\n"
                     .encode())
        for s in self.steps:
            h.update(f"{s.due!r}|{s.start}|{s.stop}|{s.tick}|{s.flush}\n"
                     .encode())
        return h.hexdigest()


def make_inputs(samples, processor, seed: int) -> Inputs:
    """Keep the truck-days with a label and build their live feed.

    The feed interleaves every truck-day in feed time (day index *
    86400 + t), reorders each truck's pings within a bounded window,
    and hands pings over in ``SLOT_S`` slots.  ``tick()`` runs every
    ``TICK_S`` and a truck-day is flushed at the first tick after its
    last ping.
    """
    prepared = prepare_test_set(samples, processor)
    raw = [p.raw for p, _ in prepared]
    labels = {(str(p.raw.truck_id), str(p.raw.day)): pair
              for p, pair in prepared}
    by_day: dict[int, list] = {}
    for trajectory in raw:
        by_day.setdefault(day_index(str(trajectory.day)), []).append(
            trajectory)
    fleet_days = [by_day[k] for k in sorted(by_day)]

    ordered = sorted(dataset_ping_stream(raw),
                     key=lambda p: (day_index(p.day) * 86400.0 + p.t,
                                    p.truck_id))
    feed_t = np.array([day_index(p.day) * 86400.0 + p.t for p in ordered])
    pings = scramble_stream(ordered, window=SCRAMBLE_WINDOW, seed=seed)
    slot_due = (np.floor(feed_t / SLOT_S) + 1.0) * SLOT_S
    last_due: dict = {}
    for p, due in zip(ordered, slot_due):
        last_due[(p.truck_id, p.day)] = due
    flush_at: dict[float, list] = {}
    for key, due in last_due.items():
        tick = np.ceil(due / TICK_S) * TICK_S
        flush_at.setdefault(tick, []).append(key)

    steps: list[Step] = []
    bounds = np.flatnonzero(np.diff(slot_due)) + 1
    starts = np.concatenate([[0], bounds])
    stops = np.concatenate([bounds, [len(ordered)]])
    arrivals = {float(slot_due[a]): (int(a), int(b))
                for a, b in zip(starts, stops)}
    due = float(slot_due[0])
    end = max(flush_at)
    while due <= end:
        start, stop = arrivals.get(due, (0, 0))
        tick = due % TICK_S == 0
        if stop > start or tick:
            flush = tuple(sorted(flush_at.get(due, ()))) if tick else ()
            steps.append(Step(due, start, stop, tick, flush))
        due += SLOT_S
    return Inputs(raw, fleet_days, labels, pings, steps)


@dataclass
class Fixture:
    world: SyntheticWorld
    lead: LEAD
    inputs: Inputs | None = None


def set_up(sizes: Sizes) -> tuple[Fixture, dict]:
    """One set-up: world and training days, then fit.

    Returns the fixture and the seconds each part took.
    """
    t0 = perf_counter()
    world = SyntheticWorld(WorldConfig(seed=WORLD_SEED))
    training = generate_dataset(DatasetConfig(
        num_trajectories=sizes.train_days,
        num_trucks=max(1, sizes.train_days // 3), seed=TRAIN_SEED,
        world=world.config), world=world)
    t1 = perf_counter()
    lead = LEAD(world.pois, lead_config())
    lead.fit(training.samples)
    t2 = perf_counter()
    return Fixture(world, lead), {"generate_s": t1 - t0, "fit_s": t2 - t1,
                                  "setup_s": t2 - t0}


def workload_inputs(fixture: Fixture, seed: int, trucks: int,
                    days: int) -> Inputs:
    """The seeded truck-days a workload hands to the program."""
    samples = generate_dataset(DatasetConfig(
        num_trajectories=trucks * days, num_trucks=trucks, seed=seed,
        world=fixture.world.config), world=fixture.world).samples
    return make_inputs(samples, fixture.lead.processor, seed)


def clear_feature_caches(lead: LEAD) -> None:
    """Empty LEAD's feature caches, as a day of new data would find them."""
    if lead.feature_cache is not None:
        lead.feature_cache.clear()
    lead.extractor.clear_cache()
    lead.featurizer.clear_memos()


def blas_vendor() -> str:
    blas = (np.show_config(mode="dicts").get("Build Dependencies")
            or {}).get("blas") or {}
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment() -> dict:
    """Interpreter, BLAS and thread settings as the run found them."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_vendor(), "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
