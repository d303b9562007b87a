"""Age processes, packet buffers, and the virtual debt queue machinery.

State layout (flat lists owned by one simulation run, indexed by row: a
tracked (flow, node) pair, in ``NetworkInstance.tracked_pairs`` order):

  age         row -> age of the node's information about the flow's source
  stamp       row -> generation slot of the freshest packet of the flow held
              at the node (-1 for none); then one cell per source, flow order
  debt        row -> destination queue Q_kj >= 0 (relay rows stay 0.0)
  relay_debt  intermediate queues (flow, dest, relay) in ``DriftEvaluator.
              relay_keys`` order; None where a run does not keep them
  targets     row -> alpha_kj, and tables row -> the pair's cost table

Ages advance once per slot: +1 without a delivery, min(age, t - t_g) + 1 when
a packet generated at t_g arrives at slot t. Debt queues accumulate the
positive part of (cost of next age - target) and never go negative.

Intermediate queues are read only by the exact-drift policy, so a run keeps
them only under that policy. Their case-1 hop distances are computed once
per action by the drift evaluator (``policies.DriftEvaluator.relay_hops``);
the update here takes the chosen action's hops.

``DebtState`` holds the same queues keyed by tuples, the form that the
public ``age_debt_action`` and ``expected_drift`` take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import bfs_distances


@dataclass
class DebtState:
    """Destination and intermediate virtual queues, all starting at zero."""

    dest: dict = field(default_factory=dict)          # (k, j) -> Q >= 0
    intermediate: dict = field(default_factory=dict)  # (k, j, i) -> Q >= 0


def advance_age(age, stamp, deliveries, t):
    """One slot of age evolution.

    ``deliveries`` is an iterable of (row, t_g): packets that physically
    arrived during slot t. Returns the new age list; ``stamp`` is updated in
    place, keeping only the freshest stamp per row.
    """
    nxt = [a + 1 for a in age]
    for (r, t_g) in deliveries:
        if t_g > t:
            raise ValueError(f"causality violation: delivery to row {r} generated at "
                             f"{t_g} > current slot {t}")
        a = min(age[r], t - t_g) + 1
        if a < nxt[r]:
            nxt[r] = a
        if stamp[r] < t_g:
            stamp[r] = t_g
    return nxt


def update_destination_debt(debt, tables, age_next, targets, rows):
    """Q_kj <- [Q_kj + f_kj(next age) - alpha_kj]^+ for every destination
    row in ``rows``, with f_kj read from the row's table. Returns those
    costs in ``rows`` order, for the caller's metrics to reuse."""
    priced = [tables[r][age_next[r]] for r in rows]
    for r, c in zip(rows, priced):
        q = debt[r] + c - targets[r]
        debt[r] = q if q > 0.0 else 0.0
    return priced


def restricted_hop_distance(adjacency, i, j, first_hops):
    """Fewest hops from i to j when the first hop must use an edge in
    ``first_hops`` (directed edges out of i); later hops are unrestricted.

    Walks may revisit nodes, so the answer is 1 + the plain hop distance from
    the best allowed first-hop head. Returns None when no such walk exists.
    """
    best = None
    for (tx, rx) in first_hops:
        if tx != i:
            raise ValueError(f"first-hop edge ({tx},{rx}) does not leave node {i}")
        if rx == j:
            return 1
        d = bfs_distances(adjacency, rx).get(j)
        if d is not None and (best is None or d + 1 < best):
            best = d + 1
    return best


def update_intermediate_debt(relay_debt, relays, hops, age, t, tables, targets, priced):
    """Advance every intermediate queue one slot.

    Queue q has ``relays[q]`` = (destination position in ``priced``,
    destination row, relay row). When the action has the relay forwarding
    (``hops[q]``, its first-hop-restricted hop distance h, is not None) and
    it holds a packet (it has received one: only then is its pre-slot age at
    most t), the queue charges the most optimistic deliverable cost
    f(min(relay age, dest age) + h) on pre-slot ages. Otherwise, including a
    forwarding assignment with no packet on board (a no-op on the wire), it
    shadows the destination's realized cost, ``priced[p]``, from
    ``update_destination_debt``.
    """
    for q, (p, rd, ri) in enumerate(relays):
        h = hops[q]
        if h is not None and age[ri] <= t:
            term = tables[rd][min(age[ri], age[rd]) + h]
        else:
            term = priced[p]
        nq = relay_debt[q] + term - targets[rd]
        relay_debt[q] = nq if nq > 0.0 else 0.0
