"""Scenario generators and exhaustive small-graph enumeration.

gen_star / gen_line build the stock benchmark instances (sources around a
hub; a unicast chain). enumerate_connected_graphs yields one representative
per isomorphism class of connected graphs on n <= 7 nodes. It grows the
classes one vertex at a time (the augmentation step of McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): every connected graph on m
nodes has a vertex that is not a cut vertex, so it is a connected graph on
m - 1 nodes plus one vertex joined to a nonempty subset of them. Duplicate
candidates are merged by a canonical form, the minimum adjacency bit-string
over all vertex permutations.
"""

from __future__ import annotations

import itertools

import numpy as np

from .costs import CostFunction
from .network import make_instance

FUNCTIONS_OF_AGE = ("linear15", "exponential", "square", "cube")


def _cycled_cost(i):
    """Cost families cycled over sources: 15*A, e^A, A^2, A^3."""
    kind = FUNCTIONS_OF_AGE[(i - 1) % 4]
    if kind == "linear15":
        return CostFunction.linear(15.0)
    if kind == "exponential":
        return CostFunction.exponential()
    if kind == "square":
        return CostFunction.power(2.0)
    return CostFunction.power(3.0)


def gen_star(n, weight_rule="i-over-n", reliability_rule="uniform", rng=None,
             cost_rule="weighted-linear"):
    """Star benchmark: sources 1..n-1 each unicast into hub n, one
    transmitter per slot.

    weight_rule: "i-over-n" (w_i = i/n) or "unit".
    reliability_rule: "uniform" (seeded U[0.6, 1] per link) or "reliable".
    cost_rule: "weighted-linear" (w_i * A) or "functions-of-age"
               (15A, e^A, A^2, A^3 cycled over the sources).

    Returns (instance, cost_fns).
    """
    if n < 2:
        raise ValueError("star needs n >= 2")
    if weight_rule not in ("i-over-n", "unit"):
        raise ValueError(f"unknown weight_rule {weight_rule!r}")
    hub = n
    sources = list(range(1, n))
    if reliability_rule == "reliable":
        probs = {s: 1.0 for s in sources}
    elif reliability_rule == "uniform":
        if rng is None:
            rng = np.random.default_rng(0)
        probs = {s: float(rng.uniform(0.6, 1.0)) for s in sources}
    else:
        raise ValueError(f"unknown reliability_rule {reliability_rule!r}")

    reliability = {(s, hub): probs[s] for s in sources}
    flows = [(s, {hub}) for s in sources]
    instance = make_instance(n, reliability, flows,
                             interference="single-transmitter", eligibility="path")

    cost_fns = {}
    for s in sources:
        if cost_rule == "weighted-linear":
            w = s / n if weight_rule == "i-over-n" else 1.0
            cost_fns[(s, hub)] = CostFunction.linear(w)
        elif cost_rule == "functions-of-age":
            cost_fns[(s, hub)] = _cycled_cost(s)
        else:
            raise ValueError(f"unknown cost_rule {cost_rule!r}")
    return instance, cost_fns


def gen_line(n, interference="parity", reliability=1.0):
    """Line benchmark: nodes 1..n in a chain, one unicast flow 1 -> n.

    interference "parity": all odd- or all even-numbered nodes forward right
    in a slot; "single-transmitter": one link at a time.

    Returns (instance, cost_fns) with unit linear cost on the single pair.
    """
    if n < 2:
        raise ValueError("line needs n >= 2")
    if interference not in ("parity", "single-transmitter"):
        raise ValueError(f"unknown line interference {interference!r}")
    rel = {(i, i + 1): float(reliability) for i in range(1, n)}
    instance = make_instance(n, rel, [(1, {n})],
                             interference=interference, eligibility="path")
    cost_fns = {(1, n): CostFunction.linear(1.0)}
    return instance, cost_fns


def broadcast_instance(n, edges, reliability=1.0):
    """All-to-all broadcast instance on an explicit topology: every node is a
    broadcast source, one transmitter-edge per slot, unit linear costs."""
    rel = {e: float(reliability) for e in edges}
    flows = [(s, set(range(1, n + 1)) - {s}) for s in range(1, n + 1)]
    instance = make_instance(n, rel, flows,
                             interference="single-transmitter", eligibility="path")
    return instance, {pair: CostFunction.linear(1.0) for pair in instance.dest_pairs()}


def _edge_list(n):
    return list(itertools.combinations(range(n), 2))


def _permutation_maps(n):
    """For each vertex permutation, the induced map of edge bit positions."""
    edges = _edge_list(n)
    pos = {e: b for b, e in enumerate(edges)}
    maps = []
    for perm in itertools.permutations(range(n)):
        maps.append([pos[tuple(sorted((perm[i], perm[j])))] for (i, j) in edges])
    return maps


def enumerate_connected_graphs(n):
    """One graph per isomorphism class of connected graphs on n nodes,
    2 <= n <= 7, in deterministic (edge count, canonical form) order.

    Grown one vertex at a time from the single edge: the candidates on m
    nodes are every class on m - 1 nodes with a new vertex m - 1 joined to
    each nonempty subset of the old ones. Every connected graph has a
    vertex whose removal leaves it connected (any leaf of a spanning tree),
    so every class on m nodes is among them.

    Each graph is a sorted tuple of 1-based edges.
    """
    if not (2 <= n <= 7):
        raise ValueError("n out of range: enumeration supports 2..7 nodes")
    one = np.uint64(1)
    edges = _edge_list(2)
    masks = np.ones(1, dtype=np.uint64)  # canonical masks of the classes so far
    for m in range(3, n + 1):
        old_edges, edges = edges, _edge_list(m)
        pos = {e: b for b, e in enumerate(edges)}
        subsets = np.arange(1, 1 << (m - 1), dtype=np.uint64)
        cand = np.zeros((len(masks), len(subsets), len(edges)), dtype=np.uint64)
        cand[:, :, [pos[e] for e in old_edges]] = \
            (masks[:, None] >> np.arange(len(old_edges), dtype=np.uint64) & one)[:, None, :]
        cand[:, :, [pos[(i, m - 1)] for i in range(m - 1)]] = \
            subsets[:, None] >> np.arange(m - 1, dtype=np.uint64) & one
        cand = cand.reshape(-1, len(edges))
        # canonical form: min over permutations of the remapped mask, in
        # chunks that keep each (chunk x m!) product small
        weights = one << np.array(_permutation_maps(m), dtype=np.uint64).T  # (bits, m!)
        chunk = 256
        masks = np.unique(np.concatenate([(cand[lo:lo + chunk] @ weights).min(axis=1)
                                          for lo in range(0, len(cand), chunk)]))
    return [tuple((i + 1, j + 1) for b, (i, j) in enumerate(edges) if mask >> b & 1)
            for mask in sorted(map(int, masks), key=lambda x: (bin(x).count("1"), x))]
