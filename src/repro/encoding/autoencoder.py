"""The hierarchical autoencoder (paper §IV-B, Fig. 5).

The compressor has two phases: phase 1 compresses each sp-f-seq and each
mp-f-seq into sp-c-vec / mp-c-vec using two *separate* operators (stay and
move behaviour differ); phase 2 compresses the sequence of sp-c-vecs and
the sequence of mp-c-vecs into SP-c-vec / MP-c-vec using two more
operators (segment-level and point-level hierarchies differ).  The c-vec
is their concatenation.  The decompressor mirrors this with four
decompression operators.

Two ablations from the paper are supported via :class:`EncoderConfig`:

* ``use_attention=False`` — LEAD-NoSel: last hidden state instead of the
  self-attention aggregation;
* ``hierarchical=False`` — LEAD-NoHie: a single compression operator and a
  single decompression operator over the flat, unsegmented f-seq (hidden
  width doubled so the c-vec dimension stays comparable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..configbase import ConfigMixin
from ..features import CandidateFeatures
from ..nn import Module, Tensor, concat, mse_loss, no_grad
from ..nn.padding import pad_sequences, pow2_buckets
from ..nn.rnn import sequence_mask
from .operators import CompressionOperator, DecompressionOperator

__all__ = ["EncoderConfig", "HierarchicalAutoencoder", "build_pair_indices"]


def build_pair_indices(pairs: list[tuple[int, int]]
                       ) -> tuple[np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
    """Vectorized phase-2 gather indices for candidate pairs.

    Candidate ``(i, j)`` covers stay ordinals ``i..j`` (``j - i + 1``
    c-vecs) and move ordinals ``i..j-1`` (``j - i`` c-vecs, possibly
    zero for adjacent stays).  Returns ``(sp_lengths, mp_lengths,
    sp_index, mp_index)`` where the index matrices gather rows of the
    phase-1 c-vec arrays into right-padded ``(N, maxK)`` layouts; padded
    cells point at row 0, which is masked out by the length vectors.

    The move-side index matrix is always at least one column wide so a
    batch whose candidates are all adjacent-stay pairs (every
    ``mp_length == 0``) still produces a well-formed ``(N, 1)`` gather
    instead of crashing on an empty ``max()``.
    """
    pairs_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i = pairs_arr[:, 0]
    j = pairs_arr[:, 1]
    sp_lengths = j - i + 1
    mp_lengths = j - i
    cols = np.arange(int(sp_lengths.max()))[None, :]
    sp_index = np.where(cols < sp_lengths[:, None], i[:, None] - 1 + cols, 0)
    mp_cols = np.arange(max(int(mp_lengths.max()), 1))[None, :]
    mp_index = np.where(mp_cols < mp_lengths[:, None],
                        i[:, None] - 1 + mp_cols, 0)
    return sp_lengths, mp_lengths, sp_index, mp_index


def _flat_sequences(stay_segments: list[np.ndarray],
                    move_segments: list[np.ndarray],
                    pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """The unsegmented f-seq of each candidate (LEAD-NoHie input)."""
    flats = []
    for i, j in pairs:
        parts = []
        for ordinal in range(i, j):
            parts.append(stay_segments[ordinal - 1])
            parts.append(move_segments[ordinal - 1])
        parts.append(stay_segments[j - 1])
        flats.append(np.concatenate(parts, axis=0))
    return flats


@dataclass(frozen=True)
class EncoderConfig(ConfigMixin):
    """Architecture knobs (paper defaults: 32 hidden units, c-vec dim 64)."""

    feature_dim: int = 32
    hidden_size: int = 32
    use_attention: bool = True
    hierarchical: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.hidden_size < 1:
            raise ValueError("dimensions must be positive")

    @property
    def cvec_dim(self) -> int:
        """Dimension of the compressed vector (64 with paper defaults)."""
        return 2 * self.hidden_size


class HierarchicalAutoencoder(Module):
    """Compressor + decompressor over segmented candidate feature sequences."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        super().__init__()
        self.config = config or EncoderConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        h = cfg.hidden_size
        f = cfg.feature_dim
        attn = cfg.use_attention
        if cfg.hierarchical:
            # Phase 1: per-segment operators (stay vs move separated).
            self.comp_sp = CompressionOperator(f, h, rng, attn)
            self.comp_mp = CompressionOperator(f, h, rng, attn)
            # Phase 2: segment-sequence operators.
            self.comp_sp2 = CompressionOperator(h, h, rng, attn)
            self.comp_mp2 = CompressionOperator(h, h, rng, attn)
            self.decomp_sp2 = DecompressionOperator(h, h, h, rng)
            self.decomp_mp2 = DecompressionOperator(h, h, h, rng)
            self.decomp_sp = DecompressionOperator(h, h, f, rng)
            self.decomp_mp = DecompressionOperator(h, h, f, rng)
        else:
            # LEAD-NoHie: one flat operator pair, double width.
            self.comp_flat = CompressionOperator(f, 2 * h, rng, attn)
            self.decomp_flat = DecompressionOperator(2 * h, 2 * h, f, rng)

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(self, features: CandidateFeatures) -> Tensor:
        """The c-vec of one candidate, shape ``(1, cvec_dim)``."""
        if not self.config.hierarchical:
            flat = features.flat()
            batch = Tensor(flat[None, :, :])
            return self.comp_flat(batch)
        sp_cvecs = self._phase1(features.stay_segments, self.comp_sp)
        mp_cvecs = self._phase1(features.move_segments, self.comp_mp)
        return self._phase2(sp_cvecs, mp_cvecs)

    def _phase1(self, segments: list[np.ndarray],
                operator: CompressionOperator) -> Tensor:
        """Compress each segment: list of (L_i, F) -> (k, H)."""
        batch, lengths = pad_sequences(segments)
        return operator(Tensor(batch), lengths)

    def _phase2(self, sp_cvecs: Tensor, mp_cvecs: Tensor) -> Tensor:
        """Compress c-vec sequences into the final (1, 2H) c-vec."""
        sp_vec = self.comp_sp2(sp_cvecs.reshape(1, *sp_cvecs.shape))
        mp_vec = self.comp_mp2(mp_cvecs.reshape(1, *mp_cvecs.shape))
        return concat([sp_vec, mp_vec], axis=1)

    # ------------------------------------------------------------------
    # The compressor forward over many trajectories
    # ------------------------------------------------------------------
    def compress_trajectories(self, stay_lists: list[list[np.ndarray]],
                              move_lists: list[list[np.ndarray]],
                              pairs_lists: list[list[tuple[int, int]]]
                              ) -> Tensor:
        """c-vecs of every candidate of many trajectories, ``(ΣN, 2H)``.

        The one compressor forward that pretraining
        (:meth:`reconstruction_loss_batch`), joint fine-tuning and
        inference (:meth:`encode_trajectories`) share; it records the
        autograd tape whenever gradients are on.

        ``stay_lists[t][i]`` / ``move_lists[t][i]`` are the featurized
        segments of stay point ``i+1`` / move point ``i+1`` of trajectory
        ``t``; candidate ``(i, j)`` uses stay ordinals ``i..j`` and move
        ordinals ``i..j-1``.  Phase 1 runs *once* over every unique
        segment of every trajectory (not once per candidate — the saving
        behind the paper's single forward computation, §VI-B), and phase
        2 runs once per power-of-2 length bucket over the merged
        candidate set.  Rows follow trajectory order, then pair order.
        """
        if not (len(stay_lists) == len(move_lists) == len(pairs_lists)):
            raise ValueError("per-trajectory lists must align")
        if not pairs_lists or any(not pairs for pairs in pairs_lists):
            raise ValueError("no candidate pairs to encode")
        if not self.config.hierarchical:
            flats = [flat for stays, moves, pairs
                     in zip(stay_lists, move_lists, pairs_lists)
                     for flat in _flat_sequences(stays, moves, pairs)]
            batch, lengths = pad_sequences(flats)
            return self.comp_flat(Tensor(batch), lengths)
        sp_cvecs = self._phase1([seg for segs in stay_lists for seg in segs],
                                self.comp_sp)             # (ΣK_sp, H)
        mp_cvecs = self._phase1([seg for segs in move_lists for seg in segs],
                                self.comp_mp)             # (ΣK_mp, H)
        # Flatten candidates, rebasing ordinals to global row offsets.
        counts = [len(pairs) for pairs in pairs_lists]
        pairs_arr = np.concatenate(
            [np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
             for pairs in pairs_lists], axis=0)
        sp_offsets = np.cumsum([0] + [len(s) for s in stay_lists[:-1]])
        mp_offsets = np.cumsum([0] + [len(m) for m in move_lists[:-1]])
        sp_start = np.repeat(sp_offsets, counts) + pairs_arr[:, 0] - 1
        mp_start = np.repeat(mp_offsets, counts) + pairs_arr[:, 0] - 1
        sp_lengths = pairs_arr[:, 1] - pairs_arr[:, 0] + 1
        mp_lengths = sp_lengths - 1
        buckets = pow2_buckets(sp_lengths)
        parts = []
        for rows in buckets:
            width = int(sp_lengths[rows].max())
            cols = np.arange(width)[None, :]
            sp_idx = np.where(cols < sp_lengths[rows, None],
                              sp_start[rows, None] + cols, 0)
            mp_cols = np.arange(max(width - 1, 1))[None, :]
            mp_idx = np.where(mp_cols < mp_lengths[rows, None],
                              mp_start[rows, None] + mp_cols, 0)
            parts.append(concat(
                [self.comp_sp2(sp_cvecs[sp_idx], sp_lengths[rows]),
                 self.comp_mp2(mp_cvecs[mp_idx], mp_lengths[rows])],
                axis=1))
        if len(parts) == 1:
            return parts[0]
        return concat(parts, axis=0)[np.argsort(np.concatenate(buckets))]

    def encode_trajectories(self, stay_lists: list[list[np.ndarray]],
                            move_lists: list[list[np.ndarray]],
                            pairs_lists: list[list[tuple[int, int]]]
                            ) -> list[np.ndarray]:
        """Inference wrapper of :meth:`compress_trajectories`.

        Returns one ``(N_t, cvec_dim)`` array per input trajectory (an
        empty list for no trajectories).
        """
        if not (stay_lists or move_lists or pairs_lists):
            return []
        with no_grad():
            out = self.compress_trajectories(
                stay_lists, move_lists, pairs_lists).numpy()
        counts = [len(pairs) for pairs in pairs_lists]
        return list(np.split(out, np.cumsum(counts)[:-1]))

    def encode_trajectory(self, stay_segments: list[np.ndarray],
                          move_segments: list[np.ndarray],
                          pairs: list[tuple[int, int]]) -> np.ndarray:
        """Encode every candidate of one trajectory, shape ``(N, 2H)``.

        The per-trajectory reference for :meth:`compress_trajectories`:
        phase 2 is one padded pass over :func:`build_pair_indices`
        gathers, with no shape buckets.
        """
        if not pairs:
            raise ValueError("no candidate pairs to encode")
        with no_grad():
            if not self.config.hierarchical:
                return self._encode_flat(stay_segments, move_segments,
                                         pairs).numpy()
            sp_cvecs = self._phase1(stay_segments, self.comp_sp)  # (n, H)
            mp_cvecs = self._phase1(move_segments, self.comp_mp)
            sp_lengths, mp_lengths, sp_index, mp_index = build_pair_indices(
                pairs)
            sp_vec = self.comp_sp2(sp_cvecs[sp_index], sp_lengths)
            mp_vec = self.comp_mp2(mp_cvecs[mp_index], mp_lengths)
            return concat([sp_vec, mp_vec], axis=1).numpy()

    def _encode_flat(self, stay_segments, move_segments, pairs) -> Tensor:
        batch, lengths = pad_sequences(
            _flat_sequences(stay_segments, move_segments, pairs))
        return self.comp_flat(Tensor(batch), lengths)

    def encode(self, features: CandidateFeatures) -> np.ndarray:
        """The c-vec of one candidate as a ``(cvec_dim,)`` array."""
        with no_grad():
            return self.compress(features).numpy()[0]

    # ------------------------------------------------------------------
    # Decompression and reconstruction loss
    # ------------------------------------------------------------------
    def reconstruction_loss(self, features: CandidateFeatures) -> Tensor:
        """MSE between the f-seq and its decompression (paper Eq. 8)."""
        return self.reconstruction_loss_batch([features])

    def reconstruction_loss_batch(self, batch: list[CandidateFeatures]
                                  ) -> Tensor:
        """Mean reconstruction MSE over a mini-batch of candidates.

        Each candidate is compressed as a one-pair trajectory ``(1, k)``
        through :meth:`compress_trajectories`, then both decompressor
        phases run over shared padded batches, so a training step costs
        a handful of large matmuls instead of hundreds of small ones.
        """
        if not batch:
            raise ValueError("empty batch")
        stays = [f.stay_segments for f in batch]
        moves = [f.move_segments for f in batch]
        c_vec = self.compress_trajectories(
            stays, moves, [[(1, len(s))] for s in stays])
        if not self.config.hierarchical:
            target, lengths = pad_sequences([f.flat() for f in batch])
            recon = self.decomp_flat(c_vec, steps=int(lengths.max()),
                                     lengths=lengths)
            mask = sequence_mask(lengths, int(lengths.max()))
            return mse_loss(recon, target, mask=mask)
        h = self.config.hidden_size
        loss_sp, n_sp = self._branch_loss_batch(
            c_vec[:, :h], stays, self.decomp_sp2, self.decomp_sp)
        loss_mp, n_mp = self._branch_loss_batch(
            c_vec[:, h:], moves, self.decomp_mp2, self.decomp_mp)
        total = n_sp + n_mp
        return loss_sp * (n_sp / total) + loss_mp * (n_mp / total)

    def _branch_loss_batch(self, branch_vec: Tensor,
                           segment_lists: list[list[np.ndarray]],
                           decomp_outer: DecompressionOperator,
                           decomp_inner: DecompressionOperator
                           ) -> tuple[Tensor, int]:
        """Decompress one branch of many candidates: (masked MSE, #points)."""
        counts = np.array([len(s) for s in segment_lists], dtype=np.int64)
        # Phase 1 of the decompressor: vector -> c-vec sequence.
        cvec_seq = decomp_outer(branch_vec, steps=int(counts.max()),
                                lengths=counts)            # (B, maxK, H)
        # One row per real segment, in candidate then segment order.
        rows = np.repeat(np.arange(len(counts)), counts)
        cols = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts)
        # Phase 2: each c-vec -> feature subsequence.
        target, lengths = pad_sequences(
            [seg for segs in segment_lists for seg in segs])
        recon = decomp_inner(cvec_seq[rows, cols], steps=int(lengths.max()),
                             lengths=lengths)
        mask = sequence_mask(lengths, int(lengths.max()))
        return mse_loss(recon, target, mask=mask), int(lengths.sum())
