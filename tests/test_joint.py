"""Tests for joint fine-tuning machinery: merged groups, indexed scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             IndependentDetector, JointDetectorTrainer,
                             TrajectorySpec, backward_index_maps,
                             build_backward_group, build_forward_group,
                             enumerate_pairs, forward_index_maps,
                             merge_groups, merged_index_maps, smooth_label)
from repro.encoding import EncoderConfig, HierarchicalAutoencoder
from repro.nn import Parameter, Tensor, bce_loss, kld_loss, no_grad
from repro.nn.optim import Adam

RNG = np.random.default_rng(71)


def candidate_count(n):
    return n * (n - 1) // 2


class TestIndexMaps:
    def test_forward_maps_match_group_builder(self):
        n = 6
        cvecs = RNG.normal(size=(candidate_count(n), 4))
        group = build_forward_group(cvecs, n)
        maps = forward_index_maps(n)
        for a, b in zip(group.index_maps, maps):
            np.testing.assert_array_equal(a, b)

    def test_backward_maps_match_group_builder(self):
        n = 6
        cvecs = RNG.normal(size=(candidate_count(n), 4))
        group = build_backward_group(cvecs, n)
        maps = backward_index_maps(n)
        for a, b in zip(group.index_maps, maps):
            np.testing.assert_array_equal(a, b)

    def test_merged_maps_match_merge_groups(self):
        ns = [3, 5, 2, 4]
        for builder, map_builder in ((build_forward_group,
                                      forward_index_maps),
                                     (build_backward_group,
                                      backward_index_maps)):
            merged = merge_groups([
                builder(RNG.normal(size=(candidate_count(n), 4)), n)
                for n in ns])
            maps = merged_index_maps(map_builder, ns)
            assert len(maps) == len(merged.index_maps)
            for a, b in zip(merged.index_maps, maps):
                np.testing.assert_array_equal(a, b)


class TestMergeGroups:
    def test_merge_offsets_indices(self):
        a = build_forward_group(RNG.normal(size=(3, 4)), 3)   # 3 candidates
        b = build_forward_group(RNG.normal(size=(6, 4)), 4)   # 6 candidates
        merged = merge_groups([a, b])
        assert merged.num_candidates == 9
        indices = np.sort(merged.flat_indices())
        np.testing.assert_array_equal(indices, np.arange(9))

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_groups([])

    def test_merged_detector_equals_separate_subgroup_mode(self):
        """One forward over a merged group == per-trajectory forwards."""
        detector = GroupDetector(input_dim=4, hidden_size=6, num_layers=2,
                                 rng=np.random.default_rng(0),
                                 subgroup_softmax=True)
        ga = build_forward_group(RNG.normal(size=(3, 4)), 3)
        gb = build_forward_group(RNG.normal(size=(10, 4)), 5)
        merged_probs = detector(merge_groups([ga, gb])).numpy()
        pa = detector(ga).numpy()
        pb = detector(gb).numpy()
        np.testing.assert_allclose(merged_probs, np.concatenate([pa, pb]),
                                   atol=1e-12)

    def test_merged_flat_softmax_with_segments_equals_separate(self):
        """Flat softmax with segment boundaries == per-trajectory runs."""
        detector = GroupDetector(input_dim=4, hidden_size=6, num_layers=1,
                                 rng=np.random.default_rng(0))
        cvecs_a = RNG.normal(size=(3, 4))
        cvecs_b = RNG.normal(size=(10, 4))
        ga = build_forward_group(cvecs_a, 3)
        gb = build_forward_group(cvecs_b, 5)
        merged = merge_groups([ga, gb])
        all_cvecs = np.concatenate([cvecs_a, cvecs_b], axis=0)
        merged_probs = detector.score_indexed(
            Tensor(all_cvecs), list(merged.index_maps),
            segments=np.array([3, 10])).numpy()
        pa = detector(ga).numpy()
        pb = detector(gb).numpy()
        np.testing.assert_allclose(merged_probs, np.concatenate([pa, pb]),
                                   atol=1e-12)
        # And each trajectory's slice is itself a distribution.
        assert merged_probs[:3].sum() == pytest.approx(1.0)
        assert merged_probs[3:].sum() == pytest.approx(1.0)


class TestScoreIndexed:
    def test_matches_forward_on_group(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 8))
        detector = GroupDetector(input_dim=8, hidden_size=6, num_layers=2,
                                 rng=np.random.default_rng(1))
        group = build_forward_group(cvecs, n)
        via_group = detector(group).numpy()
        via_index = detector.score_indexed(
            Tensor(cvecs), forward_index_maps(n)).numpy()
        np.testing.assert_allclose(via_group, via_index, atol=1e-12)

    def test_bucketed_scores_independent_of_batch_companions(self):
        """A trajectory's slice of a merged, bucketed pass is bit-identical
        to scoring it alone, including subgroups alone in their bucket."""
        ns = [3, 6, 4, 2]
        cvecs = [RNG.normal(size=(candidate_count(n), 8)) for n in ns]
        counts = np.array([len(c) for c in cvecs])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        detector = GroupDetector(input_dim=8, hidden_size=6, num_layers=2,
                                 rng=np.random.default_rng(3))
        for map_builder in (forward_index_maps, backward_index_maps):
            with no_grad():
                merged = detector.score_indexed(
                    Tensor(np.concatenate(cvecs)),
                    merged_index_maps(map_builder, ns), segments=counts,
                    bucket=True).numpy()
                for n, c, a, b in zip(ns, cvecs, offsets[:-1], offsets[1:]):
                    alone = detector.score_indexed(
                        Tensor(c), map_builder(n), bucket=True).numpy()
                    assert np.array_equal(alone, merged[a:b])

    def test_gradients_flow_to_cvecs(self):
        n = 4
        cvecs = Tensor(RNG.normal(size=(candidate_count(n), 8)),
                       requires_grad=True)
        detector = GroupDetector(input_dim=8, hidden_size=6, num_layers=1,
                                 rng=np.random.default_rng(2))
        probs = detector.score_indexed(cvecs, forward_index_maps(n))
        (probs * probs).sum().backward()
        assert cvecs.grad is not None
        assert np.isfinite(cvecs.grad).all()


class TestAdamWeightDecay:
    def test_decay_shrinks_unused_weights(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 9.5))

    def test_no_decay_by_default(self):
        p = Parameter(np.full(3, 10.0))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 10.0))


def make_specs(featurizer_rng, n_specs=6, n=4, seg_len=5, dim=32):
    """Synthetic TrajectorySpecs whose target candidate has a marker."""
    specs = []
    for _ in range(n_specs):
        stay = [featurizer_rng.normal(0, 0.2, size=(seg_len, dim))
                for _ in range(n)]
        move = [featurizer_rng.normal(0, 0.2, size=(seg_len, dim))
                for _ in range(n - 1)]
        pairs = enumerate_pairs(n)
        target = int(featurizer_rng.integers(len(pairs)))
        i, j = pairs[target]
        stay[i - 1][:, :3] += 1.5   # mark the loading stay
        stay[j - 1][:, 3:6] += 1.5  # mark the unloading stay
        specs.append(TrajectorySpec(stay, move, pairs, n, target))
    return specs


class TestJointTrainer:
    def test_requires_a_detector(self):
        ae = HierarchicalAutoencoder(EncoderConfig())
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, None, None, None)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpec([np.zeros((2, 4))], [], [(1, 2)], 2, 0)
        with pytest.raises(ValueError):
            TrajectorySpec([np.zeros((2, 4))] * 2, [np.zeros((2, 4))],
                           [(1, 2)], 2, 5)

    def test_fit_reduces_loss_and_tunes_encoder(self):
        rng = np.random.default_rng(3)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=3))
        fwd = GroupDetector(64, 16, 1, np.random.default_rng(4))
        bwd = GroupDetector(64, 16, 1, np.random.default_rng(5))
        trainer = JointDetectorTrainer(
            ae, fwd, bwd, config=DetectorTrainingConfig(
                epochs=4, learning_rate=3e-3, batch_size=3, patience=10,
                seed=0),
            finetune_encoder=True)
        before = ae.state_dict()
        specs = make_specs(rng)
        histories = trainer.fit(specs)
        assert len(histories) == 2
        assert histories[0].final_loss < histories[0].epoch_losses[0]
        after = ae.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed, "encoder weights should move when fine-tuning"

    def test_frozen_encoder_untouched(self):
        rng = np.random.default_rng(6)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=6))
        fwd = GroupDetector(64, 8, 1, np.random.default_rng(7))
        trainer = JointDetectorTrainer(
            ae, fwd, None, config=DetectorTrainingConfig(
                epochs=1, batch_size=3, seed=0),
            finetune_encoder=False)
        before = ae.state_dict()
        trainer.fit(make_specs(rng, n_specs=3))
        after = ae.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_independent_path(self):
        rng = np.random.default_rng(8)
        ae = HierarchicalAutoencoder(EncoderConfig(seed=8))
        mlp = IndependentDetector(64, np.random.default_rng(9))
        trainer = JointDetectorTrainer(
            ae, None, None, mlp, DetectorTrainingConfig(
                epochs=2, batch_size=3, seed=0))
        histories = trainer.fit(make_specs(rng, n_specs=4))
        assert histories[0].name == "independent-detector"

    @pytest.mark.parametrize("grouping", [True, False])
    def test_batch_losses_match_per_trajectory_reference(self, grouping):
        """One compressor forward and bucketed scoring over a mixed-length
        batch give the losses of per-trajectory ``encode_trajectory``
        c-vecs scored by the padded ``score_indexed(bucket=False)``."""
        rng = np.random.default_rng(10)
        batch = (make_specs(rng, n_specs=1, n=3)
                 + make_specs(rng, n_specs=1, n=6)
                 + make_specs(rng, n_specs=1, n=4))
        ae = HierarchicalAutoencoder(EncoderConfig(seed=10))
        if grouping:
            fwd = GroupDetector(64, 8, 1, np.random.default_rng(11))
            bwd = GroupDetector(64, 8, 1, np.random.default_rng(12))
            trainer = JointDetectorTrainer(ae, fwd, bwd)
        else:
            mlp = IndependentDetector(64, np.random.default_rng(13))
            trainer = JointDetectorTrainer(ae, None, None, mlp)
        losses = [loss.item() for loss in trainer._batch_losses(batch)]
        cvecs = [Tensor(ae.encode_trajectory(s.stay_segments,
                                             s.move_segments, s.pairs))
                 for s in batch]
        if grouping:
            eps = trainer.config.epsilon
            expected = [
                sum(kld_loss(smooth_label(len(s.pairs), s.target_index, eps),
                             detector.score_indexed(
                                 c, maps(s.num_stay_points),
                                 bucket=False)).item()
                    for s, c in zip(batch, cvecs))
                for detector, maps in ((fwd, forward_index_maps),
                                       (bwd, backward_index_maps))]
        else:
            # The batch loss is the candidate-weighted mean BCE, times
            # the batch size.
            total = sum(len(s.pairs) for s in batch)
            expected = [len(batch) / total * sum(
                bce_loss(mlp(c), np.eye(len(s.pairs))[s.target_index]).item()
                * len(s.pairs) for s, c in zip(batch, cvecs))]
        np.testing.assert_allclose(losses, expected, rtol=1e-9, atol=0)

    def test_fit_rejects_empty(self):
        ae = HierarchicalAutoencoder(EncoderConfig())
        fwd = GroupDetector(64, 8, 1)
        with pytest.raises(ValueError):
            JointDetectorTrainer(ae, fwd, None).fit([])
