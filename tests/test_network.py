import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisim import (ActionSpaceError, IDLE_ACTION, build_action_space,
                    make_flow, make_instance, validate_action)
from aoisim import network
from aoisim.network import _graph_errors


def validate_instance(instance):
    """Every violation of the instance invariants: those ``make_instance``
    checks, then the idle action first and each action's own."""
    errors = _graph_errors(instance.node_count, instance.edges, instance.reliability,
                           instance.flows)
    flow_ids = {f.source for f in instance.flows}
    if instance.action_space[:1] != (IDLE_ACTION,):
        errors.append("action space does not start with the idle action")
    for a in instance.action_space:
        errors.extend(validate_action(a, instance.edges, flow_ids))
    return errors


def flows_of(spec):
    return [make_flow(s, d) for (s, d) in spec]


def test_star_single_transmitter_path_pruned():
    # two sources into a hub: only the source->hub assignments survive
    flows = flows_of([(1, {3}), (2, {3})])
    space = build_action_space(3, [(1, 3), (2, 3)], flows, "single-transmitter",
                               eligibility="path")
    assert space == ((), ((1, 3, 1),), ((2, 3, 2),))


def test_two_hop_line_action_set(two_hop):
    instance, _ = two_hop
    assert instance.action_space == ((), ((1, 2, 1),), ((2, 3, 1),))


def test_four_node_line_parity_matches_brute_force():
    flows = flows_of([(1, {4})])
    edges = [(1, 2), (2, 3), (3, 4)]
    space = build_action_space(4, edges, flows, "parity", eligibility="path")
    # oracle: forward-right sender sets whose senders are all-odd or all-even
    expected = {IDLE_ACTION}
    for senders in ({1, 3}, {2}):
        expected.add(tuple(sorted((i, i + 1, 1) for i in senders)))
    assert set(space) == expected
    assert space == tuple(sorted(expected))


def test_explicit_model_adds_idle_and_validates():
    flows = flows_of([(1, {3})])
    edges = [(1, 2), (2, 3)]
    space = build_action_space(3, edges, flows, "explicit",
                               explicit_actions=[[(1, 2, 1)]])
    assert IDLE_ACTION in space
    with pytest.raises(ValueError):
        build_action_space(3, edges, flows, "explicit",
                           explicit_actions=[[(1, 3, 1)]])  # not an edge


def test_single_transmitter_count_no_pruning():
    # |S| = 1 + edges * directions * flows under "any" eligibility
    flows = flows_of([(1, {4}), (2, {4})])
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    space = build_action_space(4, edges, flows, "single-transmitter",
                               eligibility="any")
    assert len(space) == 1 + len(edges) * 2 * 2


def test_matching_model_node_exclusive():
    flows = flows_of([(1, {4})])
    edges = [(1, 2), (2, 3), (3, 4)]
    space = build_action_space(4, edges, flows, "matching", eligibility="path")
    for action in space:
        used = [n for (tx, rx, _k) in action for n in (tx, rx)]
        assert len(used) == len(set(used))
    # path-eligible directed edges are the three forward hops; matchings:
    # {}, {a}, {b}, {c}, {a, c}
    assert len(space) == 5


def test_action_space_cap(monkeypatch):
    flows = flows_of([(1, {4}), (2, {4}), (3, {4})])
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4), (1, 3)]
    monkeypatch.setattr(network, "ACTION_CAP", 10)
    with pytest.raises(ActionSpaceError):
        build_action_space(4, edges, flows, "single-transmitter")


def test_deterministic_ordering():
    flows = flows_of([(1, {4}), (2, {4})])
    edges = [(3, 4), (1, 2), (2, 3)]
    a = build_action_space(4, edges, flows, "single-transmitter")
    b = build_action_space(4, list(reversed(edges)), flows, "single-transmitter")
    assert a == b


def test_parity_requires_line():
    flows = flows_of([(1, {3})])
    with pytest.raises(ValueError):
        build_action_space(3, [(1, 2), (2, 3), (1, 3)], flows, "parity")


def test_validate_instance_ok():
    ring = [(i, i + 1) for i in range(1, 5)] + [(1, 5)]
    inst = make_instance(5, {e: 1.0 for e in ring}, [(1, set(range(2, 6)))])
    assert validate_instance(inst) == []


def test_validate_instance_wants_idle_first(two_hop):
    instance, _ = two_hop
    moved = replace(instance, action_space=instance.action_space[::-1])
    assert validate_instance(moved) == ["action space does not start with the idle action"]


def test_validate_source_in_destinations():
    with pytest.raises(ValueError, match="source in destination set"):
        make_instance(3, {(1, 2): 1.0, (2, 3): 1.0}, [(1, {1, 3})])


def test_validate_reliability_out_of_range():
    with pytest.raises(ValueError, match="reliability out of range"):
        make_instance(2, {(1, 2): 0.0}, [(1, {2})])


def test_edge_endpoint_out_of_range_is_a_value_error():
    # checked before the action space or the adjacency map index the node
    with pytest.raises(ValueError, match="edge 2-7 references unknown node"):
        make_instance(3, {(1, 2): 1.0, (2, 7): 1.0}, [(1, {2})])


def test_duplicate_edge_in_either_orientation_rejected():
    for rel in ({(1, 2): 0.5, (2, 1): 0.9}, [((1, 2), 0.5), ((1, 2), 0.9)]):
        with pytest.raises(ValueError, match="duplicate edge 1-2"):
            make_instance(2, rel, [(1, {2})])
    inst = make_instance(3, [((2, 1), 0.5), ((3, 2), 0.9)], [(1, {3})])
    assert inst.reliability == {(1, 2): 0.5, (2, 3): 0.9}


def test_validate_unreachable_destination():
    with pytest.raises(ValueError, match="unreachable"):
        make_instance(4, {(1, 2): 1.0, (3, 4): 1.0}, [(1, {4})])


def test_relays_two_hop(two_hop):
    instance, _ = two_hop
    assert instance.relays(instance.flows[0]) == [2]
    assert instance.tracked_pairs() == [(1, 3), (1, 2)]


@st.composite
def random_instances(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    # random connected graph: a random spanning tree plus extras
    tree = []
    for v in range(2, n + 1):
        u = draw(st.integers(min_value=1, max_value=v - 1))
        tree.append((u, v))
    extras = draw(st.sets(st.sampled_from(all_edges), max_size=4)) if all_edges else set()
    edges = sorted(set(tree) | extras)
    sources = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1,
                           max_size=min(3, n)))
    flows = []
    for s in sorted(sources):
        others = [v for v in range(1, n + 1) if v != s]
        dests = draw(st.sets(st.sampled_from(others), min_size=1))
        flows.append((s, dests))
    model = draw(st.sampled_from(["single-transmitter", "matching"]))
    eligibility = draw(st.sampled_from(["any", "path"]))
    return n, edges, flows, model, eligibility


@given(random_instances())
@settings(max_examples=40, deadline=None)
def test_generated_actions_always_valid(params):
    n, edges, flows, model, eligibility = params
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "ACTION_CAP", 200_000)
        inst = make_instance(n, {e: 1.0 for e in edges}, flows,
                             interference=model, eligibility=eligibility)
    assert validate_instance(inst) == []
    assert inst.action_space[0] == IDLE_ACTION
