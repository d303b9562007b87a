"""Age processes, packet buffers, and the virtual debt queue machinery.

State layout (plain dicts, owned by one simulation run):

  age     (flow, node) -> integer age of the node's information about the
                          flow's source, tracked for destinations and relays
  buffer  (node, flow) -> generation timestamp of the freshest packet of the
                          flow held at the node (absent if never received)
  debt    DebtState with destination queues (flow, dest) and intermediate
          queues (flow, dest, relay)

Ages advance once per slot: +1 without a delivery, min(age, t - t_g) + 1 when
a packet generated at t_g arrives at slot t. Debt queues accumulate the
positive part of (cost of next age - target) and never go negative.

Intermediate queues are read only by the exact-drift policy, so a run keeps
them only under that policy. Their case-1 hop distances are computed once
per action by the drift evaluator (``policies.DriftEvaluator.relay_hops``);
the update here takes the chosen action's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import bfs_distances


@dataclass
class DebtState:
    """Destination and intermediate virtual queues, all starting at zero."""

    dest: dict = field(default_factory=dict)          # (k, j) -> Q >= 0
    intermediate: dict = field(default_factory=dict)  # (k, j, i) -> Q >= 0


def initial_age(tracked_pairs):
    """Everyone starts one slot old; the post-delivery minimum."""
    return {pair: 1 for pair in tracked_pairs}


def initial_buffer(flows):
    """Sources hold a (never transmitted) packet stamped just before t=0."""
    return {(f.source, f.source): -1 for f in flows}


def initial_debt(instance):
    pairs = instance.dest_pairs()
    relays = {f.source: instance.relays(f) for f in instance.flows}
    return DebtState(dest={pair: 0.0 for pair in pairs},
                     intermediate={(k, j, i): 0.0 for (k, j) in pairs for i in relays[k]})


def advance_age(age, buffer, deliveries, t):
    """One slot of age evolution.

    ``deliveries`` is an iterable of (flow, node, t_g): packets that
    physically arrived during slot t. Returns the new age map; ``buffer`` is
    updated in place, keeping only the freshest timestamp per (node, flow).
    """
    best = {}
    for (k, j, t_g) in deliveries:
        if t_g > t:
            raise ValueError(f"causality violation: delivery ({k},{j}) generated at "
                             f"{t_g} > current slot {t}")
        cur = best.get((k, j))
        if cur is None or t_g > cur:
            best[(k, j)] = t_g
    nxt = {}
    for pair, a in age.items():
        t_g = best.get(pair)
        if t_g is None:
            nxt[pair] = a + 1
        else:
            nxt[pair] = min(a, t - t_g) + 1
    for (k, j), t_g in best.items():
        key = (j, k)
        if buffer.get(key, -(10 ** 18)) < t_g:
            buffer[key] = t_g
    return nxt


def update_destination_debt(debt, cost_fns, age_next, targets):
    """Q_kj <- [Q_kj + f_kj(next age) - alpha_kj]^+ for every pair.

    Returns the slot's cost f_kj(next age) of every pair, so that the
    caller's metrics reuse it instead of pricing the age again.
    """
    dest = debt.dest
    priced = {}
    for pair in dest:
        c = priced[pair] = cost_fns[pair](age_next[pair])
        q = dest[pair] + c - targets[pair]
        dest[pair] = q if q > 0.0 else 0.0
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


def update_intermediate_debt(debt, age, forwarded, hops, targets, cost_fns,
                             priced):
    """Advance every intermediate queue one slot.

    When relay i actually forwarded a flow-k packet this slot ((i, k) in
    ``forwarded``: it was assigned outgoing flow-k edges and held a packet),
    the queue charges the most optimistic deliverable cost:
    f(min(relay age, dest age) + h), with h = ``hops[(k, j, i)]`` the hop
    distance restricted to the relay's first hops, using pre-slot ages.
    Otherwise, including a forwarding assignment with no packet on board (a
    no-op on the wire), the queue shadows the destination's realized cost
    f(next dest age), read from ``priced``, the slot's costs that
    ``update_destination_debt`` returned.
    """
    for (k, j, i), q in debt.intermediate.items():
        if (i, k) in forwarded:
            term = cost_fns[(k, j)](min(age[(k, i)], age[(k, j)]) + hops[(k, j, i)])
        else:
            term = priced[(k, j)]
        nq = q + term - targets[(k, j)]
        debt.intermediate[(k, j, i)] = nq if nq > 0.0 else 0.0
    return debt
