"""Group generation (paper §V-A, Table II).

Candidates are enumerated in *forward-group order*: (1,2), (1,3), ...,
(1,n), (2,3), ..., (n-1,n).  The forward group's subgroups are contiguous
slices of that order; the backward group's subgroups gather candidates
sharing an ending stay point, sorted by descending starting index.

Inside each subgroup, neighbouring candidates stand in inclusion
(left-to-right) and exclusion (right-to-left) relationships, and all of a
subgroup's candidates are analogous (same starting or ending stay point) —
the relationships the BiLSTM detectors exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["pair_to_index", "index_to_pair", "enumerate_pairs",
           "Group", "build_forward_group", "build_backward_group",
           "forward_index_maps", "backward_index_maps", "merged_index_maps",
           "merge_groups"]


def enumerate_pairs(num_stay_points: int) -> list[tuple[int, int]]:
    """All (i', j') pairs in forward-group order."""
    return [(i, j)
            for i in range(1, num_stay_points + 1)
            for j in range(i + 1, num_stay_points + 1)]


def pair_to_index(num_stay_points: int, pair: tuple[int, int]) -> int:
    """Flat candidate index of pair (i', j') in forward-group order."""
    i, j = pair
    n = num_stay_points
    if not 1 <= i < j <= n:
        raise ValueError(f"invalid pair {pair} for n={n}")
    # Candidates before subgroup i: (n-1) + (n-2) + ... + (n-i+1).
    offset = (i - 1) * n - i * (i - 1) // 2
    return offset + (j - i - 1)


def index_to_pair(num_stay_points: int, index: int) -> tuple[int, int]:
    """Inverse of :func:`pair_to_index`."""
    n = num_stay_points
    total = n * (n - 1) // 2
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for n={n}")
    remaining = index
    for i in range(1, n):
        size = n - i
        if remaining < size:
            return (i, i + 1 + remaining)
        remaining -= size
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Group:
    """A forward or backward group.

    ``subgroups[k]`` is a ``(L_k, D)`` matrix of compressed vectors;
    ``index_maps[k]`` gives, for each row, the candidate's flat index in
    forward-group (enumeration) order, so detector outputs can be scattered
    back into a common indexing.
    """

    subgroups: tuple[np.ndarray, ...]
    index_maps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.subgroups) != len(self.index_maps):
            raise ValueError("subgroups/index_maps length mismatch")
        for matrix, indices in zip(self.subgroups, self.index_maps):
            if len(matrix) != len(indices):
                raise ValueError("subgroup and index map sizes differ")

    @property
    def num_candidates(self) -> int:
        return int(sum(len(m) for m in self.subgroups))

    def flat_indices(self) -> np.ndarray:
        """Candidate indices in subgroup-concatenation order."""
        return np.concatenate(self.index_maps)


#: Index maps are pure functions of ``n`` and are rebuilt for every
#: trajectory of every detect call; stay-point counts repeat heavily
#: across a fleet, so a small memo removes the quadratic Python loop
#: from the online path.  Cached arrays are frozen — consumers that
#: offset them (``merge_groups``, the batched detector path) already
#: produce fresh arrays via ``indices + offset``.
_INDEX_MAP_MEMO: dict[tuple[str, int], list[np.ndarray]] = {}
_INDEX_MAP_MEMO_MAX = 1024


def _memoized_maps(kind: str, num_stay_points: int, build) -> list[np.ndarray]:
    key = (kind, num_stay_points)
    maps = _INDEX_MAP_MEMO.get(key)
    if maps is None:
        maps = build(num_stay_points)
        for indices in maps:
            indices.setflags(write=False)
        if len(_INDEX_MAP_MEMO) >= _INDEX_MAP_MEMO_MAX:
            _INDEX_MAP_MEMO.clear()
        _INDEX_MAP_MEMO[key] = maps
    return list(maps)


def forward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    """Candidate indices of subgroups g_1..g_{n-1} (same starting index,
    ascending ending index)."""
    return _memoized_maps("forward", num_stay_points, _forward_index_maps)


def backward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    """Candidate indices of subgroups ḡ_2..ḡ_n (same ending index,
    descending starting index)."""
    return _memoized_maps("backward", num_stay_points, _backward_index_maps)


def merged_index_maps(map_builder, num_stay_points: Sequence[int]
                      ) -> list[np.ndarray]:
    """Subgroup index maps of several trajectories, rebased into one batch.

    ``map_builder`` is :func:`forward_index_maps` or
    :func:`backward_index_maps`; each trajectory's maps are offset by
    the candidate counts of the trajectories before it, so they index
    the concatenation of every trajectory's c-vecs.
    """
    maps: list[np.ndarray] = []
    offset = 0
    for n in num_stay_points:
        maps.extend(indices + offset for indices in map_builder(n))
        offset += n * (n - 1) // 2
    return maps


def _forward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    n = num_stay_points
    return [np.array([pair_to_index(n, (i, j)) for j in range(i + 1, n + 1)])
            for i in range(1, n)]


def _backward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    n = num_stay_points
    return [np.array([pair_to_index(n, (i, j)) for i in range(j - 1, 0, -1)])
            for j in range(2, n + 1)]


def build_forward_group(cvecs: np.ndarray, num_stay_points: int) -> Group:
    """Subgroups g_1..g_{n-1}: same starting index, ascending ending index."""
    _validate(cvecs, num_stay_points)
    index_maps = forward_index_maps(num_stay_points)
    return Group(tuple(cvecs[indices] for indices in index_maps),
                 tuple(index_maps))


def build_backward_group(cvecs: np.ndarray, num_stay_points: int) -> Group:
    """Subgroups ḡ_2..ḡ_n: same ending index, descending starting index."""
    _validate(cvecs, num_stay_points)
    index_maps = backward_index_maps(num_stay_points)
    return Group(tuple(cvecs[indices] for indices in index_maps),
                 tuple(index_maps))


def merge_groups(groups: list[Group]) -> Group:
    """Concatenate groups of several raw trajectories into one.

    Index maps are offset by the cumulative candidate counts, so the merged
    detector output is the concatenation of the per-trajectory outputs in
    enumeration order.  Subgroups remain independent sequences, which makes
    one detector forward over the merged group mathematically identical to
    one forward per trajectory — but far cheaper on CPU.
    """
    if not groups:
        raise ValueError("no groups to merge")
    subgroups: list[np.ndarray] = []
    index_maps: list[np.ndarray] = []
    offset = 0
    for group in groups:
        subgroups.extend(group.subgroups)
        index_maps.extend(indices + offset for indices in group.index_maps)
        offset += group.num_candidates
    return Group(tuple(subgroups), tuple(index_maps))


def _validate(cvecs: np.ndarray, num_stay_points: int) -> None:
    expected = num_stay_points * (num_stay_points - 1) // 2
    if num_stay_points < 2:
        raise ValueError("need at least two stay points")
    if cvecs.ndim != 2 or len(cvecs) != expected:
        raise ValueError(
            f"expected ({expected}, D) compressed vectors for "
            f"n={num_stay_points}, got {cvecs.shape}")
