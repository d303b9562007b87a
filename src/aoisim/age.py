"""Age processes, packet buffers, and the virtual debt queue machinery.

State layout (flat lists owned by one simulation run, indexed by row: a
tracked (flow, node) pair of the instance's ``RowPlan``, which owns it):

  age         row -> age of the node's information about the flow's source
  held        row -> whether the node holds a packet of the flow, which is
              then exactly as old as its age
  debt        row -> destination queue Q_kj >= 0 (relay rows stay 0.0)
  relay_debt  intermediate queues in ``RowPlan.relay_keys`` order; None
              where a run does not keep them
  targets     row -> alpha_kj, and tables row -> the pair's cost table

Ages advance once per slot: +1 without a delivery, and a successful link
m -> i sets A_i to min(A_i, A_m) + 1, where A_m is the sender's pre-slot age
(0 for the flow's source, which sends a fresh update). Only a node that holds
a packet can send one. Debt queues accumulate the positive part of (cost of
next age - target) and never go negative. The slot loop that ``sim``
generates for each instance applies these rules.

Intermediate queues are read only by the exact-drift policy, so a run keeps
them only under that policy. Their case-1 hop distances are computed once
per action, on first read, by the row plan (``RowPlan.relay_hops``).

``DebtState`` holds the same queues keyed by tuples, the form that the
public ``age_debt_action`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import bfs_distances, canon_edge


@dataclass
class DebtState:
    """Destination and intermediate virtual queues, all starting at zero;
    ``age_debt_action(...).scores`` are the exact drifts from such a state."""

    dest: dict = field(default_factory=dict)          # (k, j) -> Q >= 0
    intermediate: dict = field(default_factory=dict)  # (k, j, i) -> Q >= 0


def row_plan(instance):
    """The instance's ``RowPlan``, built on first use and kept on it."""
    if instance._row_plan is None:
        instance._row_plan = RowPlan(instance)
    return instance._row_plan


class RowPlan:
    """An instance's rows, relay queues and links, for every reader of the
    row state: the slot loop, the open-loop arrays, the drift evaluator and
    the DP oracle.

    Rows are the ``tracked`` (flow, node) pairs; ``dest_rows`` are the rows
    of ``dest_pairs``. Relay queue q is ``relay_keys[q]`` = (flow, dest,
    relay), and ``relays[q]`` = (dest position in ``dest_pairs``, dest row,
    relay row).

    A link is a (tx, rx, flow) assignment that can lower a row's age: from
    the flow's source, which sends a fresh update, or from a tracked node of
    the flow, which sends the packet it held before the slot. Links into the
    flow's own source, or from a node that never holds the flow, change
    nothing and are left out. ``action_links[a]`` lists action a's links as
    (rx row, tx row or -1 for the source, edge), in assignment order; the
    arrays list every distinct link once, sorted by receiving row, for
    ``stamps``. ``relay_hops`` holds each action's case-1 hop distances.
    """

    def __init__(self, instance):
        self._instance = instance
        self.tracked = tracked = instance.tracked_pairs()
        row = {pair: i for i, pair in enumerate(tracked)}
        self.n_rows = n_rows = len(tracked)
        self.dest_pairs = instance.dest_pairs()
        self.dest_rows = [row[pair] for pair in self.dest_pairs]
        # a flow's relays are its tracked nodes that are not destinations
        relay_rows = sorted(set(range(n_rows)) - set(self.dest_rows))
        self.relays = [(p, rd, ri) for p, rd in enumerate(self.dest_rows) for ri in relay_rows
                       if tracked[ri][0] == tracked[rd][0]]
        self.relay_keys = [(*tracked[rd], tracked[ri][1]) for (_, rd, ri) in self.relays]
        self.action_links = []
        links = {}  # (rx row, tx row or -1, edge) -> actions using it
        for a, action in enumerate(instance.action_space):
            kept = []
            for (tx, rx, k) in action:
                r = row.get((k, rx))
                m = -1 if tx == k else row.get((k, tx))
                if r is not None and m is not None:
                    kept.append((r, m, instance.edge_index[canon_edge(tx, rx)]))
                    links.setdefault(kept[-1], []).append(a)
            self.action_links.append(kept)
        keys = sorted(links)
        self.active = np.zeros((len(instance.action_space), len(keys)), dtype=bool)
        for i, key in enumerate(keys):
            self.active[links[key], i] = True  # action x link
        rx_rows, tx_rows, self.edges = np.array(keys, dtype=np.intp).reshape(-1, 3).T
        self.from_source = tx_rows < 0
        self.relay_links = np.flatnonzero(tx_rows >= 0)
        self.relay_from = tx_rows[self.relay_links]
        # receiving rows and the first link of each, for maximum.reduceat
        self.rows, self.starts = np.unique(rx_rows, return_index=True)

    @cached_property
    def relay_hops(self):
        """``relay_hops[a][q]``: relay queue q's hop distance when action a
        has q's relay send q's flow, else None. It is 1 + the fewest hops to
        the destination from a head of those first hops, which are read from
        the raw action, a first hop back into the source included; one BFS
        per head node. Built on first read: only exact-drift runs read it."""
        dist = {}  # head node -> hop distances from it

        def hops_from(rx):
            if rx not in dist:
                dist[rx] = bfs_distances(self._instance.adjacency, rx)
            return dist[rx]

        out = []
        for action in self._instance.action_space:
            heads = {}  # (node, flow) -> heads of the links it sends the flow on
            for (tx, rx, k) in action:
                heads.setdefault((tx, k), []).append(rx)
            out.append([1 + min(hops_from(rx)[j] for rx in heads[(i, k)]) if (i, k) in heads
                        else None for (k, j, i) in self.relay_keys])
        return out

    def stamps(self, before, start, on):
        """Every row's buffer stamp, the slot that made its freshest packet
        (-1 for none), after each slot of a block that starts at slot
        ``start``; ``before`` holds the stamps before it, and ``on`` (link x
        slot) marks the active links whose channel delivered. Only the
        open-loop run keeps stamps: in them its recurrence is max-plus."""
        n_slots = on.shape[1]
        carried = np.empty(on.shape, dtype=np.int64)
        carried[self.from_source] = np.arange(start, start + n_slots)
        carried[self.relay_links, 0] = before[self.relay_from]
        floor = np.broadcast_to(before[:, None], (self.n_rows, n_slots))
        stamps = floor
        # each round carries every stamp one more hop; the freshest stamp
        # reaches a node along a simple path, so at most n - 1 rounds
        # change anything
        while True:
            carried[self.relay_links, 1:] = stamps[self.relay_from, :-1]
            nxt = np.full((self.n_rows, n_slots), -1, dtype=np.int64)
            nxt[self.rows] = np.maximum.reduceat(np.where(on, carried, -1), self.starts, axis=0)
            nxt = np.maximum(np.maximum.accumulate(nxt, axis=1), floor)
            if np.array_equal(nxt, stamps):
                return stamps
            stamps = nxt
