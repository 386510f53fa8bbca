"""Padding utilities for variable-length sequence batches."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["pad_sequences", "pow2_buckets"]


def pad_sequences(sequences: Sequence[np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad 2-D arrays to a common length.

    Given ``k`` arrays of shape ``(L_i, F)``, returns a ``(k, max L, F)``
    batch (zero padded) and the ``(k,)`` integer length vector.

    The batch dtype is float32 only when *every* sequence is float32
    (dtype-cast inference features); any other mix keeps the historical
    float64 coercion.
    """
    sequences = [np.asarray(s) for s in sequences]
    if not sequences:
        raise ValueError("pad_sequences needs at least one sequence")
    if all(s.dtype == np.float32 for s in sequences):
        dtype = np.dtype(np.float32)
    else:
        dtype = np.dtype(np.float64)
        sequences = [np.asarray(s, dtype=dtype) for s in sequences]
    feature_dim = sequences[0].shape[1]
    if any(s.ndim != 2 or s.shape[1] != feature_dim for s in sequences):
        raise ValueError("all sequences must be (L_i, F) with equal F")
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    if (lengths == 0).any():
        raise ValueError("empty sequences cannot be padded")
    batch = np.zeros((len(sequences), int(lengths.max()), feature_dim),
                     dtype=dtype)
    for i, s in enumerate(sequences):
        batch[i, :len(s)] = s
    return batch, lengths


def pow2_buckets(lengths: np.ndarray) -> list[np.ndarray]:
    """Group rows by the power-of-2 ceiling of their sequence length.

    Rows in a group are padded only to the group's own maximum, so a
    batch mixing 2-step and 40-step sequences does not pay 40-step
    recurrences for every row.  Padding is freeze-masked, so the
    grouping changes wasted arithmetic, not what is computed.
    """
    keys = 2 ** np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)
    return [np.nonzero(keys == key)[0] for key in np.unique(keys)]
