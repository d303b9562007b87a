"""Per-edge Bernoulli channel processes.

Each edge gets its own counter-based random stream (Philox keyed by (run
seed, edge index)), so the success bit of edge e at slot t is a pure function
of (seed, e, t). Policies can consume as much or as little randomness as they
like without perturbing the channel sequence, which keeps policy comparisons
on common random numbers.

Bits are drawn in blocks of ``_BLOCK`` slots, a power of two that also
blocks a run's policy draws and sets its runaway check (each block's first
slot). The slot loop reads bits in slot order through ``ChannelProcess.bits``;
the open-loop path reads whole blocks as arrays through ``_rows``.
"""

from __future__ import annotations

import numpy as np

_CHANNEL_TAG = 0xC4A77E1  # domain separator vs. policy streams

# Philox.advance counts 4x64-bit counter steps; one step yields 4 doubles.
_BLOCK = 4096


def _edge_key(seed, edge_idx):
    ss = np.random.SeedSequence((int(seed) & (2 ** 64 - 1), _CHANNEL_TAG, edge_idx))
    return ss.generate_state(2, np.uint64)


class ChannelProcess:
    """Success bits for every edge of an instance, drawn one block of slots
    at a time."""

    def __init__(self, instance, seed):
        self.n_edges = len(instance.edges)
        self._keys = [_edge_key(seed, i) for i in range(self.n_edges)]
        self._probs = np.array([instance.reliability[e] for e in instance.edges])

    def _rows(self, start, stop):
        """Success bits of slots start..stop-1 (start a block boundary,
        stop - start <= _BLOCK), one row per slot. The first r doubles of a
        Philox draw do not depend on how many follow, so a short last
        block holds the same bits as the first rows of a full one."""
        draws = np.empty((stop - start, self.n_edges))
        for i, key in enumerate(self._keys):
            bg = np.random.Philox(key=key)
            bg.advance(start // 4)
            draws[:, i] = np.random.Generator(bg).random(stop - start)
        return draws < self._probs

    def bits(self, horizon):
        """Success bits of slots 0..horizon-1 in slot order, each a list of
        bools indexed like instance.edges. Rows are drawn one block at a
        time and none past the horizon."""
        for start in range(0, horizon, _BLOCK):
            yield from self._rows(start, min(start + _BLOCK, horizon)).tolist()
