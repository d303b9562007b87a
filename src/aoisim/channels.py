"""Per-edge Bernoulli channel processes.

Each edge gets its own counter-based random stream (Philox keyed by (run
seed, edge index)), so the success bit of edge e at slot t is a pure function
of (seed, e, t). Policies can consume as much or as little randomness as they
like without perturbing the channel sequence, which keeps policy comparisons
on common random numbers.
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
    """Random-access success bits for every edge of an instance.

    With a ``horizon``, ``slot`` serves only slots below it and draws no
    rows past it; the bits are the same as without one."""

    def __init__(self, instance, seed, horizon=None):
        self.horizon = horizon
        self.n_edges = len(instance.edges)
        self._keys = [_edge_key(seed, i) for i in range(self.n_edges)]
        self._probs = np.array([instance.reliability[e] for e in instance.edges])
        self._block_start = -1
        self._block = None

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

    def slot(self, t):
        """Success bits of slot t, a list of bools indexed like
        instance.edges (one block is converted to lists at a time)."""
        if t < 0 or (self.horizon is not None and t >= self.horizon):
            raise ValueError(f"slot {t} is not in the run (0 <= t < horizon)")
        start = (t // _BLOCK) * _BLOCK
        if start != self._block_start:
            stop = start + _BLOCK if self.horizon is None else min(start + _BLOCK, self.horizon)
            self._block = self._rows(start, stop).tolist()
            self._block_start = start
        return self._block[t - start]
