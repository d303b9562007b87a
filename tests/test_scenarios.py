import itertools

import numpy as np
import pytest

from aoisim import enumerate_connected_graphs, gen_line, gen_star
from aoisim.scenarios import _edge_list, _permutation_maps, broadcast_instance


# ---------------- star generator ----------------

def test_star_weights_follow_i_over_n():
    inst, costs = gen_star(4, reliability_rule="reliable")
    assert [costs[(s, 4)].weight for s in (1, 2, 3)] == [0.25, 0.5, 0.75]
    assert all(c.kind == "linear" for c in costs.values())


def test_star_reliable_variant():
    inst, _ = gen_star(6, reliability_rule="reliable")
    assert all(p == 1.0 for p in inst.reliability.values())


def test_star_uniform_reliabilities_seeded():
    rng = np.random.default_rng(42)
    inst, _ = gen_star(8, rng=rng)
    ps = list(inst.reliability.values())
    assert all(0.6 <= p <= 1.0 for p in ps)
    rng2 = np.random.default_rng(42)
    inst2, _ = gen_star(8, rng=rng2)
    assert inst2.reliability == inst.reliability


def test_star_functions_of_age_cycle():
    _, costs = gen_star(5, reliability_rule="reliable", cost_rule="functions-of-age")
    kinds = [(costs[(s, 5)].kind, costs[(s, 5)].weight, costs[(s, 5)].exponent)
             for s in (1, 2, 3, 4)]
    assert kinds[0] == ("linear", 15.0, 1.0)
    assert kinds[1][0] == "exponential"
    assert kinds[2] == ("power", 1.0, 2.0)
    assert kinds[3] == ("power", 1.0, 3.0)


def test_star_topology():
    inst, _ = gen_star(6)
    assert inst.edges == tuple((s, 6) for s in range(1, 6))
    assert len(inst.action_space) == 6  # idle + one per source


# ---------------- line generator ----------------

def test_line_three_nodes_single_transmitter_is_two_hop_relay(two_hop):
    reference, _ = two_hop
    inst, _ = gen_line(3, interference="single-transmitter")
    assert inst.edges == reference.edges
    assert inst.action_space == reference.action_space


def test_line_parity_action_count():
    inst, _ = gen_line(4, interference="parity")
    assert len(inst.action_space) == 3  # idle, odd senders, even senders


def test_line_two_nodes_models_coincide():
    a, _ = gen_line(2, interference="parity")
    b, _ = gen_line(2, interference="single-transmitter")
    assert a.action_space == b.action_space


# ---------------- graph enumeration ----------------

KNOWN_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_connected_graph_counts(n, count):
    assert len(enumerate_connected_graphs(n)) == count


def test_total_five_and_six_node_graphs():
    total = len(enumerate_connected_graphs(5)) + len(enumerate_connected_graphs(6))
    assert total == 133


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        enumerate_connected_graphs(1)
    with pytest.raises(ValueError):
        enumerate_connected_graphs(8)


def connected(n, edges):
    """Depth-first search from node 1 over 1-based edges."""
    nodes = list(range(1, n + 1))
    adj = {v: set() for v in nodes}
    for (i, j) in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def isomorphic(n, e1, e2):
    """Some relabelling of the nodes maps edge set e1 onto e2."""
    if len(e1) != len(e2):
        return False
    nodes = list(range(1, n + 1))
    s2 = set(e2)
    for perm in itertools.permutations(nodes):
        relabel = dict(zip(nodes, perm))
        mapped = {tuple(sorted((relabel[i], relabel[j]))) for (i, j) in e1}
        if mapped == s2:
            return True
    return False


def brute_force_classes(n):
    """Independent oracle: pairwise isomorphism testing by permutation."""
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    reps = []
    for size in range(len(all_edges) + 1):
        for edges in itertools.combinations(all_edges, size):
            if not connected(n, edges):
                continue
            if not any(isomorphic(n, edges, r) for r in reps if len(r) == size):
                reps.append(edges)
    return reps


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_pairwise_isomorphism_oracle(n):
    fast = enumerate_connected_graphs(n)
    slow = brute_force_classes(n)
    # each enumerated graph is isomorphic to exactly one representative,
    # and no two of them to the same one
    matches = [[r for r, rep in enumerate(slow) if isomorphic(n, graph, rep)]
               for graph in fast]
    assert all(len(m) == 1 for m in matches)
    assert sorted(m[0] for m in matches) == list(range(len(slow)))


def test_representatives_pairwise_non_isomorphic():
    graphs = enumerate_connected_graphs(5)
    nodes = list(range(1, 6))
    for a, b in itertools.combinations(graphs, 2):
        if len(a) != len(b):
            continue
        sb = set(b)
        assert not any(
            {tuple(sorted((p[i - 1], p[j - 1]))) for (i, j) in a} == sb
            for p in itertools.permutations(nodes))


def canonical_mask(n, mask, perm_maps):
    """Minimum adjacency bit-string over all vertex permutations, one mask
    at a time: the scalar form of the enumeration's canonical form."""
    bits = [b for b in range(len(_edge_list(n))) if mask >> b & 1]
    best = None
    for pm in perm_maps:
        m = 0
        for b in bits:
            m |= 1 << pm[b]
        if best is None or m < best:
            best = m
    return best


def test_scalar_canonical_form_agrees_with_enumeration():
    n = 4
    edges = _edge_list(n)
    perm_maps = _permutation_maps(n)

    def decode(mask):
        return tuple((i + 1, j + 1) for b, (i, j) in enumerate(edges) if mask >> b & 1)

    canon = {canonical_mask(n, m, perm_maps)
             for m in range(1 << len(edges)) if connected(n, decode(m))}
    graphs = enumerate_connected_graphs(n)
    assert len(canon) == len(graphs) == 6
    assert {decode(c) for c in canon} == set(graphs)


def test_enumeration_deterministic_order():
    assert enumerate_connected_graphs(5) == enumerate_connected_graphs(5)
    counts = [len(g) for g in enumerate_connected_graphs(5)]
    assert counts == sorted(counts)  # ordered by edge count first


# ---------------- broadcast instances ----------------

def test_broadcast_instance_all_pairs():
    edges = [(1, 2), (2, 3), (1, 3)]
    inst, costs = broadcast_instance(3, edges)
    assert all(f.destinations == {1, 2, 3} - {f.source} for f in inst.flows)
    assert len(costs) == 6  # 3 sources x 2 destinations
    assert all(not inst.relays(f) for f in inst.flows)
