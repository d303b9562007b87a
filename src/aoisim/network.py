"""Static network description.

A network instance bundles the topology (an undirected simple graph on nodes
1..N), per-edge delivery probabilities, the flows (source plus destination
set), and the explicit action space: the tuple of interference-free
(directed edge, flow) assignment sets a scheduler may pick from in one slot,
idle first. A policy's action index is a position in that tuple.

Actions are plain tuples of ``(tx, rx, flow)`` triples, sorted ascending, so
they hash, compare, and order deterministically. The empty tuple is the idle
action.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby

Action = tuple

IDLE_ACTION: Action = ()

ACTION_CAP = 10 ** 6


class ActionSpaceError(ValueError):
    """Raised when an enumerated action space would exceed the size cap."""


def canon_edge(i, j):
    """Undirected edge as an ordered pair."""
    if i == j:
        raise ValueError(f"self-loop at node {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Flow:
    """One flow: a source node streaming updates to a set of destinations.

    Flows are identified by their source node; two flows never share a
    source.
    """

    source: int
    destinations: frozenset


def make_flow(source, destinations):
    dests = frozenset(destinations)
    if not dests:
        raise ValueError(f"flow {source} has no destinations")
    if source in dests:
        raise ValueError(f"flow {source}: source in destination set")
    return Flow(source, dests)


@dataclass
class NetworkInstance:
    """Immutable-after-construction description of one network, with the
    tuple of actions that ``build_action_space`` returns.

    Safe to share read-only across parallel runs; the simulation engine never
    mutates it (the row plan, the drift evaluator and the compiled slot
    loops are private caches, each built once). It pickles as data only: a
    copy rebuilds each cache on first use.
    """

    node_count: int
    edges: tuple                 # canonical (i, j) pairs, i < j, sorted
    reliability: dict            # edge -> delivery probability in (0, 1]
    flows: tuple                 # Flow, sorted by source
    action_space: tuple          # actions, idle first

    def __post_init__(self):
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.adjacency = adjacency_map(self.node_count, self.edges)
        self.flow_by_source = {f.source: f for f in self.flows}
        self._drift_evaluator = None
        self._row_plan = None
        self._slot_loops = {}  # run shape -> compiled slot loop (sim._loop)

    def __getstate__(self):
        return {**self.__dict__, "_drift_evaluator": None, "_row_plan": None, "_slot_loops": {}}

    def edge_prob(self, i, j):
        return self.reliability[canon_edge(i, j)]

    def relays(self, flow):
        """Nodes that can ever hold a packet of ``flow``: reachable from the
        source through directed edges that carry the flow in some action,
        minus the source and the flow's destinations.

        A node outside this set would keep an intermediate debt queue whose
        trajectory duplicates the destination queue exactly (it can never
        forward), so we do not track queues there.
        """
        outgoing = {}
        for action in self.action_space:
            for (tx, rx, k) in action:
                if k == flow.source:
                    outgoing.setdefault(tx, set()).add(rx)
        seen = {flow.source}
        frontier = deque([flow.source])
        while frontier:
            u = frontier.popleft()
            for v in outgoing.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return sorted(seen - flow.destinations - {flow.source})

    def dest_pairs(self):
        """Cost-bearing (flow source, destination) pairs, flow after flow,
        destinations in ascending order."""
        return [(f.source, j) for f in self.flows for j in sorted(f.destinations)]

    def tracked_pairs(self):
        """All (flow source, node) age processes the simulator maintains:
        every destination plus every relay node of each flow, flow after
        flow."""
        pairs = []
        for k, dests in groupby(self.dest_pairs(), key=lambda pair: pair[0]):
            pairs.extend(dests)
            pairs.extend((k, i) for i in self.relays(self.flow_by_source[k]))
        return pairs


def adjacency_map(node_count, edges):
    adj = {v: [] for v in range(1, node_count + 1)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    for v in adj:
        adj[v].sort()
    return adj


def bfs_distances(adjacency, start):
    """Hop distances from ``start``; unreachable nodes are absent."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def _eligible_flows(node_count, edges, flows, eligibility):
    """Map directed edge (tx, rx) -> tuple of flow ids assignable to it.

    "any": every flow may ride every directed edge (the scheduler may still
    never find that useful). "path": only flows for which the directed edge
    lies on a shortest path from the flow's source to one of its
    destinations; this is the pruning lever that keeps enumerated spaces
    small on stars and lines.
    """
    adj = adjacency_map(node_count, edges)
    directed = [(i, j) for (i, j) in edges] + [(j, i) for (i, j) in edges]
    directed.sort()
    out = {}
    if eligibility == "any":
        all_flows = tuple(f.source for f in flows)
        return {de: all_flows for de in directed}
    if eligibility != "path":
        raise ValueError(f"unknown eligibility rule {eligibility!r}")
    dist_from = {}
    for f in flows:
        dist_from[f.source] = bfs_distances(adj, f.source)
    dist_to = {}
    needed = {j for f in flows for j in f.destinations}
    for j in needed:
        dist_to[j] = bfs_distances(adj, j)
    for (tx, rx) in directed:
        keep = []
        for f in flows:
            ds = dist_from[f.source]
            if tx not in ds:
                continue
            for j in f.destinations:
                dt = dist_to[j]
                if rx in dt and tx in dt and ds[tx] + 1 + dt[rx] == ds.get(j, -1):
                    keep.append(f.source)
                    break
        out[(tx, rx)] = tuple(keep)
    return out


def _is_line(node_count, edges):
    expected = tuple(sorted((i, i + 1) for i in range(1, node_count)))
    return tuple(sorted(edges)) == expected


def build_action_space(node_count, edges, flows, model,
                       eligibility="any", explicit_actions=None):
    """Enumerate the feasible action set for one of the interference models.

    explicit            -- take ``explicit_actions`` as given (idle is added
                           if missing); each action is validated.
    single-transmitter  -- exactly one directed edge active per slot.
    matching            -- active edges form a matching (node-exclusive
                           interference); every direction/flow combination of
                           every matching is an action.
    parity              -- line networks only: all odd-numbered or all
                           even-numbered nodes forward one hop to the right.

    Returns a tuple of actions, sorted (idle first, then lexicographic by
    assignment), so identical inputs always produce the identical tuple.
    Raises ``ActionSpaceError`` for more than ``ACTION_CAP`` actions.
    """
    edges = tuple(sorted(canon_edge(i, j) for (i, j) in edges))
    eligible = _eligible_flows(node_count, edges, flows, eligibility)

    if model == "explicit":
        if explicit_actions is None:
            raise ValueError("explicit interference model needs an action list")
        acts = set()
        for action in explicit_actions:
            action = tuple(sorted(tuple(a) for a in action))
            errs = validate_action(action, edges, {f.source for f in flows})
            if errs:
                raise ValueError(f"invalid action {action}: " + "; ".join(errs))
            acts.add(action)
        acts.add(IDLE_ACTION)
        actions = sorted(acts)
    elif model == "single-transmitter":
        actions = [IDLE_ACTION]
        for (tx, rx) in sorted(eligible):
            for k in eligible[(tx, rx)]:
                actions.append(((tx, rx, k),))
    elif model == "matching":
        actions = _enumerate_matchings(edges, eligible)
    elif model == "parity":
        if not _is_line(node_count, edges):
            raise ValueError("parity interference is defined for line networks only")
        actions = [IDLE_ACTION]
        for start in (1, 2):  # odd senders, then even senders
            senders = [i for i in range(start, node_count, 2)]
            assigns = []
            for i in senders:
                ks = eligible.get((i, i + 1), ())
                if ks:
                    assigns.append((i, i + 1, ks[0]))
            if assigns:
                actions.append(tuple(sorted(assigns)))
        actions = sorted(set(actions))
    else:
        raise ValueError(f"unknown interference model {model!r}")

    if len(actions) > ACTION_CAP:
        raise ActionSpaceError(
            f"instance too large for enumerative scheduling: "
            f"{len(actions)} actions exceed the cap of {ACTION_CAP}")
    return tuple(actions)


def _enumerate_matchings(edges, eligible):
    """All (direction, flow)-labeled matchings, idle included."""
    actions = [IDLE_ACTION]
    n_edges = len(edges)

    def extend(start, used_nodes, chosen):
        if len(actions) > ACTION_CAP:
            raise ActionSpaceError(
                f"instance too large for enumerative scheduling: more than "
                f"{ACTION_CAP} actions under the matching model")
        for idx in range(start, n_edges):
            (i, j) = edges[idx]
            if i in used_nodes or j in used_nodes:
                continue
            for (tx, rx) in ((i, j), (j, i)):
                for k in eligible[(tx, rx)]:
                    nxt = chosen + [(tx, rx, k)]
                    actions.append(tuple(sorted(nxt)))
                    extend(idx + 1, used_nodes | {i, j}, nxt)

    extend(0, set(), [])
    return sorted(set(actions))


def validate_action(action, edges, flow_ids):
    """All violations of the per-action invariants (empty list when fine)."""
    errors = []
    seen_edges = set()
    edge_set = set(edges)
    for (tx, rx, k) in action:
        e = (tx, rx) if tx < rx else (rx, tx)
        if tx == rx:
            errors.append(f"self-loop assignment at node {tx}")
            continue
        if e not in edge_set:
            errors.append(f"assignment uses non-edge {tx}-{rx}")
        if e in seen_edges:
            errors.append(f"edge {e[0]}-{e[1]} assigned more than once")
        seen_edges.add(e)
        if k not in flow_ids:
            errors.append(f"assignment references unknown flow {k}")
    return errors


def make_instance(node_count, reliability, flows, interference="single-transmitter",
                  eligibility="any", explicit_actions=None):
    """Assemble and validate a NetworkInstance.

    ``reliability`` maps undirected edges to delivery probabilities, as a
    dict or as ``((i, j), p)`` pairs; an edge given twice, in either
    orientation, is an error. ``flows`` is a list of (source, destinations)
    pairs. Nodes, edges and flows are checked before the action space is
    built, so every node that reaches it is in range.
    """
    rel = {}
    for (i, j), p in reliability.items() if isinstance(reliability, dict) else reliability:
        e = canon_edge(i, j)
        if e in rel:
            raise ValueError(f"duplicate edge {e[0]}-{e[1]}")
        rel[e] = float(p)
    edges = tuple(sorted(rel))
    flow_objs = sorted((make_flow(source, dests) for source, dests in flows),
                       key=lambda f: f.source)
    errors = _graph_errors(node_count, edges, rel, flow_objs)
    if errors:
        raise ValueError("invalid instance: " + "; ".join(errors))
    space = build_action_space(node_count, edges, flow_objs, interference,
                               eligibility=eligibility,
                               explicit_actions=explicit_actions)
    return NetworkInstance(node_count, edges, rel, tuple(flow_objs), space)


def _graph_errors(n, edges, reliability, flows):
    """Violations of the node, edge and flow invariants, in that order."""
    errors = []
    if n < 2:
        errors.append("node_count must be >= 2")
    for (i, j) in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            errors.append(f"edge {i}-{j} references unknown node")
        if i > j:
            errors.append(f"edge {i}-{j} not in canonical order")
        p = reliability.get((i, j))
        if p is None or not (0.0 < p <= 1.0):
            errors.append(f"reliability out of range on edge {i}-{j}: {p}")

    if not (1 <= len(flows) <= n):
        errors.append(f"flow count {len(flows)} outside 1..{n}")
    sources = [f.source for f in flows]
    if len(set(sources)) != len(sources):
        errors.append("flow source identifiers are not distinct")

    adj = adjacency_map(n, [(i, j) for (i, j) in edges if 1 <= i <= n and 1 <= j <= n])
    for f in flows:
        if not (1 <= f.source <= n):
            errors.append(f"flow {f.source}: source is not a node")
            continue
        dist = bfs_distances(adj, f.source)
        for j in sorted(f.destinations):
            if not (1 <= j <= n):
                errors.append(f"flow {f.source}: destination {j} is not a node")
            elif j not in dist:
                errors.append(f"flow {f.source}: destination {j} unreachable from source")
    return errors
