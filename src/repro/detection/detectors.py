"""Forward / backward detectors (paper §V-B, Fig. 7) and the NoGro MLP.

Each detector is a stacked BiLSTM over the subgroups of a group; every
subgroup is an independent sequence (batched with padding), position
scores come from a 1-unit fully connected layer, and a per-subgroup softmax
yields the probability vector of the subgroup (Eq. 10).
"""

from __future__ import annotations

import numpy as np

from ..nn import (Linear, Module, Sequential, StackedBiLSTM, Tensor, concat,
                  masked_softmax)
from ..nn.padding import pad_sequences, pow2_buckets
from ..nn.precision import inference_param
from ..nn.rnn import sequence_mask
from .grouping import Group

__all__ = ["GroupDetector", "IndependentDetector"]


class GroupDetector(Module):
    """Stacked-BiLSTM detector over a forward or backward group.

    Output: a probability Tensor of shape ``(N,)`` indexed by *candidate
    enumeration order* (the detector scatters its per-subgroup outputs back
    through the group's index maps), where each subgroup's entries form a
    softmax distribution.
    """

    def __init__(self, input_dim: int = 64, hidden_size: int = 64,
                 num_layers: int = 4,
                 rng: np.random.Generator | None = None,
                 subgroup_softmax: bool = False) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.backbone = StackedBiLSTM(input_dim, hidden_size, num_layers, rng)
        self.score = Linear(hidden_size, 1, rng)
        #: Eq. (10) reads as a softmax per subgroup, but the detector's
        #: output is compared by KLD against a label that sums to 1
        #: (Eq. 11), and single-detector ablations (NoFor/NoBac) only
        #: produce meaningful argmaxes when the distribution is normalized
        #: over the whole group: a per-subgroup softmax pins every
        #: single-element subgroup at probability 1.0.  The default is
        #: therefore a flat softmax over all candidates of the group; set
        #: ``subgroup_softmax=True`` for the literal per-subgroup reading.
        self.subgroup_softmax = subgroup_softmax

    def forward(self, group: Group) -> Tensor:
        batch, lengths = pad_sequences(group.subgroups)
        if batch.shape[2] != self.input_dim:
            raise ValueError(
                f"expected c-vec dim {self.input_dim}, got {batch.shape[2]}")
        return self._probabilities(Tensor(batch), lengths,
                                   group.flat_indices(), segments=None)

    def score_indexed(self, cvecs: Tensor, index_maps: list[np.ndarray],
                      segments: np.ndarray | None = None,
                      bucket: bool = False) -> Tensor:
        """Differentiable variant of :meth:`forward`.

        ``cvecs`` is the ``(N, D)`` tensor of compressed vectors (typically
        fresh out of the compressor, with gradients attached) and
        ``index_maps`` are the subgroup index maps of a (merged) group.
        Rows are gathered into a padded subgroup batch with one fancy
        index, so gradients flow back into the encoder — the joint
        fine-tuning path.  When several trajectories' groups were merged,
        ``segments`` gives the candidate count of each trajectory so the
        flat softmax normalizes per trajectory, never across them.

        ``bucket=True`` groups the subgroup sequences by power-of-two
        length before the BiLSTM pass so short subgroups are not padded
        to the longest subgroup of the whole (merged) batch.  The
        freeze-masked BiLSTM makes the hidden states of valid positions
        padding-length invariant, so this changes nothing but wasted
        arithmetic; it pays off when many trajectories' groups were
        merged and is a no-op for single-subgroup calls.
        """
        if cvecs.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected c-vec dim {self.input_dim}, got {cvecs.shape}")
        lengths = np.array([len(m) for m in index_maps], dtype=np.int64)
        flat_indices = np.concatenate(index_maps)
        if bucket and len(index_maps) > 1 and not self.subgroup_softmax:
            return self._probabilities_bucketed(cvecs, index_maps, lengths,
                                                flat_indices, segments)
        index = np.zeros((len(index_maps), int(lengths.max())),
                         dtype=np.int64)
        for row, indices in enumerate(index_maps):
            index[row, :len(indices)] = indices
        return self._probabilities(cvecs[index], lengths, flat_indices,
                                   segments)

    def _scores(self, batch: Tensor, lengths: np.ndarray) -> Tensor:
        """Position scores ``(B, T)`` of a padded subgroup batch.

        A row's scores depend on that row alone, so a subgroup gets the
        same bits whichever subgroups share its batch.  numpy hands
        one-row and one-column products to BLAS gemv, which rounds
        differently from gemm, and for one column differently per row
        count.  So a lone row runs as a duplicated pair, and the 1-unit
        score layer is a row-wise dot product.
        """
        if batch.shape[0] == 1:
            return self._scores(concat([batch, batch], axis=0),
                                np.repeat(lengths, 2))[:1]
        hidden = self.backbone(batch, lengths)                # (B, T, H)
        weight = inference_param(self.score.weight).reshape(-1)
        return ((hidden * weight).sum(axis=2)
                + inference_param(self.score.bias))

    def _probabilities(self, batch: Tensor, lengths: np.ndarray,
                       flat_indices: np.ndarray,
                       segments: np.ndarray | None) -> Tensor:
        scores = self._scores(batch, lengths)
        order = np.argsort(flat_indices)
        if self.subgroup_softmax:
            mask = sequence_mask(lengths, batch.shape[1])
            probs = masked_softmax(scores, mask, axis=1)      # (B, T)
            pieces = [probs[b, :int(lengths[b])]
                      for b in range(batch.shape[0])]
            return concat(pieces, axis=0)[order]
        # Flat normalization: one softmax per trajectory's candidates.
        pieces = [scores[b, :int(lengths[b])]
                  for b in range(batch.shape[0])]
        return self._normalize_flat(concat(pieces, axis=0)[order], segments)

    def _probabilities_bucketed(self, cvecs: Tensor,
                                index_maps: list[np.ndarray],
                                lengths: np.ndarray,
                                flat_indices: np.ndarray,
                                segments: np.ndarray | None) -> Tensor:
        """Flat-softmax scoring with length-bucketed BiLSTM passes.

        Subgroups are binned by the power-of-two ceiling of their length;
        each bin runs one backbone forward padded only to the bin's own
        maximum, and the per-subgroup score slices are reassembled in the
        original subgroup order before normalization.
        """
        pieces: list[Tensor | None] = [None] * len(index_maps)
        for rows in pow2_buckets(lengths):
            width = int(lengths[rows].max())
            index = np.zeros((len(rows), width), dtype=np.int64)
            for r, row in enumerate(rows):
                index[r, :int(lengths[row])] = index_maps[row]
            scores = self._scores(cvecs[index], lengths[rows])
            for r, row in enumerate(rows):
                pieces[row] = scores[r, :int(lengths[row])]
        order = np.argsort(flat_indices)
        return self._normalize_flat(concat(pieces, axis=0)[order], segments)

    def _normalize_flat(self, flat_scores: Tensor,
                        segments: np.ndarray | None) -> Tensor:
        if segments is None:
            return flat_scores.softmax(axis=0)
        bounds = np.concatenate([[0], np.cumsum(segments)])
        parts = [flat_scores[int(a):int(b)].softmax(axis=0)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        return concat(parts, axis=0)


class IndependentDetector(Module):
    """The LEAD-NoGro ablation: per-candidate MLP with sigmoid output.

    Four fully connected layers (64, 32, 32, 1 units) applied to each
    compressed vector independently; the last layer's sigmoid is the
    candidate's probability of being the loaded trajectory (§VI-A).
    """

    def __init__(self, input_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.fc1 = Linear(input_dim, 64, rng)
        self.fc2 = Linear(64, 32, rng)
        self.fc3 = Linear(32, 32, rng)
        self.fc4 = Linear(32, 1, rng)

    def forward(self, cvecs: np.ndarray | Tensor) -> Tensor:
        """Probabilities of shape ``(N,)`` in enumeration order."""
        x = cvecs if isinstance(cvecs, Tensor) else Tensor(cvecs)
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected c-vec dim {self.input_dim}, got {x.shape}")
        h = self.fc1(x).relu()
        h = self.fc2(h).relu()
        h = self.fc3(h).relu()
        return self.fc4(h).sigmoid().reshape(-1)
