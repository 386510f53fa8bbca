"""Tests for grouping, label processing, detectors, merging, and training."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (DetectorTrainingConfig, GroupDetector,
                             IndependentDetector, argmax_pair,
                             build_backward_group, build_forward_group,
                             enumerate_pairs, index_to_pair,
                             merge_distributions, pair_to_index,
                             smooth_label)

RNG = np.random.default_rng(53)


def candidate_count(n):
    return n * (n - 1) // 2


class TestPairIndexing:
    def test_enumerate_matches_paper_table2(self):
        pairs = enumerate_pairs(5)
        assert pairs[:4] == [(1, 2), (1, 3), (1, 4), (1, 5)]
        assert pairs[4:7] == [(2, 3), (2, 4), (2, 5)]
        assert pairs[-1] == (4, 5)
        assert len(pairs) == 10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14))
    def test_pair_index_roundtrip(self, n):
        for index, pair in enumerate(enumerate_pairs(n)):
            assert pair_to_index(n, pair) == index
            assert index_to_pair(n, index) == pair

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            pair_to_index(5, (3, 3))
        with pytest.raises(ValueError):
            pair_to_index(5, (0, 2))
        with pytest.raises(ValueError):
            index_to_pair(5, 10)


class TestGroups:
    def test_forward_group_structure(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 8))
        group = build_forward_group(cvecs, n)
        assert len(group.subgroups) == n - 1
        assert [len(s) for s in group.subgroups] == [4, 3, 2, 1]
        # g_1 = <(1,2), (1,3), (1,4), (1,5)> — ascending ending index.
        np.testing.assert_array_equal(group.index_maps[0], [0, 1, 2, 3])
        assert group.num_candidates == 10

    def test_backward_group_structure(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 8))
        group = build_backward_group(cvecs, n)
        assert len(group.subgroups) == n - 1
        assert [len(s) for s in group.subgroups] == [1, 2, 3, 4]
        # ḡ_5 = <(4,5), (3,5), (2,5), (1,5)> — descending starting index.
        expected = [pair_to_index(n, p)
                    for p in [(4, 5), (3, 5), (2, 5), (1, 5)]]
        np.testing.assert_array_equal(group.index_maps[-1], expected)

    def test_groups_cover_all_candidates_once(self):
        n = 7
        cvecs = RNG.normal(size=(candidate_count(n), 4))
        for builder in (build_forward_group, build_backward_group):
            group = builder(cvecs, n)
            indices = np.sort(group.flat_indices())
            np.testing.assert_array_equal(indices,
                                          np.arange(candidate_count(n)))

    def test_subgroup_contents_match_cvecs(self):
        n = 4
        cvecs = RNG.normal(size=(candidate_count(n), 3))
        group = build_backward_group(cvecs, n)
        for matrix, indices in zip(group.subgroups, group.index_maps):
            np.testing.assert_array_equal(matrix, cvecs[indices])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_forward_group(RNG.normal(size=(5, 3)), 5)  # wrong count
        with pytest.raises(ValueError):
            build_forward_group(RNG.normal(size=(0, 3)), 1)


class TestLabels:
    def test_smooth_label_sums_to_one(self):
        label = smooth_label(10, 3)
        assert label.sum() == pytest.approx(1.0)
        assert label.argmax() == 3
        assert (label > 0).all()

    def test_epsilon_entries(self):
        label = smooth_label(5, 0, epsilon=1e-4)
        np.testing.assert_allclose(label[1:], np.full(4, 1e-4))
        assert label[0] == pytest.approx(1.0 - 4e-4)

    def test_single_candidate(self):
        label = smooth_label(1, 0)
        np.testing.assert_allclose(label, [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_label(5, 5)
        with pytest.raises(ValueError):
            smooth_label(0, 0)
        with pytest.raises(ValueError):
            smooth_label(5, 0, epsilon=0.5)


class TestMerge:
    def test_merge_rescales_to_unit_interval(self):
        merged = merge_distributions(np.array([0.1, 0.5, 0.4]),
                                     np.array([0.2, 0.6, 0.2]))
        assert merged.min() == 0.0
        assert merged.max() == 1.0
        assert merged.argmax() == 1

    def test_merge_single_distribution(self):
        merged = merge_distributions(np.array([0.2, 0.8]))
        np.testing.assert_allclose(merged, [0.0, 1.0])

    def test_merge_constant_distribution(self):
        merged = merge_distributions(np.array([0.5, 0.5]))
        np.testing.assert_allclose(merged, [0.5, 0.5])

    def test_merge_validation(self):
        with pytest.raises(ValueError):
            merge_distributions(np.zeros((2, 2)))

    def test_argmax_pair(self):
        pairs = enumerate_pairs(3)
        assert argmax_pair(np.array([0.1, 0.9, 0.3]), pairs) == (1, 3)
        with pytest.raises(ValueError):
            argmax_pair(np.array([1.0]), pairs)


class TestDetectors:
    def test_flat_softmax_sums_to_one_over_group(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 16))
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=2,
                                 rng=RNG)
        probs = detector(build_forward_group(cvecs, n)).numpy()
        assert probs.shape == (candidate_count(n),)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_subgroup_softmax_sums_per_subgroup(self):
        n = 5
        cvecs = RNG.normal(size=(candidate_count(n), 16))
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=2,
                                 rng=RNG, subgroup_softmax=True)
        group = build_forward_group(cvecs, n)
        probs = detector(group).numpy()
        # Each forward subgroup's probabilities sum to 1 (literal Eq. 10).
        for indices in group.index_maps:
            assert probs[indices].sum() == pytest.approx(1.0)

    def test_group_detector_backward_group(self):
        n = 4
        cvecs = RNG.normal(size=(candidate_count(n), 16))
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=1,
                                 rng=RNG, subgroup_softmax=True)
        group = build_backward_group(cvecs, n)
        probs = detector(group).numpy()
        for indices in group.index_maps:
            assert probs[indices].sum() == pytest.approx(1.0)

    def test_group_detector_rejects_wrong_dim(self):
        detector = GroupDetector(input_dim=16, hidden_size=8, num_layers=1,
                                 rng=RNG)
        group = build_forward_group(RNG.normal(size=(3, 8)), 3)
        with pytest.raises(ValueError):
            detector(group)

    def test_independent_detector_range(self):
        detector = IndependentDetector(input_dim=16, rng=RNG)
        probs = detector(RNG.normal(size=(7, 16))).numpy()
        assert probs.shape == (7,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_independent_detector_rejects_wrong_dim(self):
        detector = IndependentDetector(input_dim=16, rng=RNG)
        with pytest.raises(ValueError):
            detector(RNG.normal(size=(3, 8)))


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorTrainingConfig(epochs=0)
