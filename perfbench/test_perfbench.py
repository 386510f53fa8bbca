"""Fast tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json

import pytest

from perfbench import spec
from perfbench.fixture import make_inputs
from perfbench.run import run
from repro.api import (DatasetConfig, SyntheticWorld, WorldConfig,
                       generate_dataset)
from repro.processing import RawTrajectoryProcessor


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_runs_at_tiny_size(workload, traced):
    outcome, metrics = run(workload, seed=3, seconds=1.0, traced=traced,
                           sizes=spec.TINY)
    assert outcome.correct, outcome.notes
    assert outcome.attempted > 0 and outcome.failed == 0
    expected = spec.PER_LAYER if traced else spec.END_TO_END
    assert list(metrics) == [m[0] for m in expected]
    if not traced:   # a model trained on 12 days may miss all 4 pairs
        assert all(value > 0 for name, value in metrics.items()
                   if name != "accuracy"), metrics


def test_benchmark_json_matches_spec():
    on_disk = json.loads(spec.BENCHMARK_JSON.read_text())
    assert on_disk == spec.benchmark_json()
    assert [m["name"] for m in on_disk["end_to_end"]] == [
        m[0] for m in spec.END_TO_END]
    assert [w["name"] for w in on_disk["workloads"]] == list(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])


def feed_digest(seed: int) -> str:
    world_config = WorldConfig(seed=spec.WORLD_SEED)
    world = SyntheticWorld(world_config)
    samples = generate_dataset(DatasetConfig(
        num_trajectories=8, num_trucks=4, seed=seed, world=world_config),
        world=world).samples
    return make_inputs(samples, RawTrajectoryProcessor(), seed).digest()


def test_feed_digest_follows_the_seed():
    assert feed_digest(5) == feed_digest(5)
    assert feed_digest(5) != feed_digest(6)
