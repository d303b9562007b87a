import itertools
import threading

import pytest
from hypothesis import strategies as st

from aoisim import CostFunction, make_instance


@pytest.fixture
def two_hop():
    """3-node line 1-2-3, one flow 1 -> 3, one edge active per slot."""
    instance = make_instance(3, {(1, 2): 1.0, (2, 3): 1.0}, [(1, {3})],
                             interference="single-transmitter", eligibility="path")
    cost_fns = {(1, 3): CostFunction.linear(1.0)}
    return instance, cost_fns


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail any test that leaves a thread it started still running. A
    ``fork`` with live threads can deadlock the child, and Python 3.12 warns
    about it, which this suite turns into an error: ``run_sweep`` forks its
    workers after ``dp_optimal`` solves, so no solve may leave a thread."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")


def idx_of(instance, action):
    return instance.action_space.index(action)


def lyapunov(debt):
    """Sum of squares of every destination and intermediate queue."""
    total = 0.0
    for q in debt.dest.values():
        total += q * q
    for q in debt.intermediate.values():
        total += q * q
    return total


def diamond():
    """1 -> {2, 3} -> 4, one flow 1 -> 4; each non-idle action drives both
    links of one stage at once."""
    instance = make_instance(
        4, {(1, 2): 0.9, (1, 3): 0.6, (2, 4): 0.7, (3, 4): 0.8}, [(1, {4})],
        interference="explicit",
        explicit_actions=[[(1, 2, 1), (1, 3, 1)], [(2, 4, 1), (3, 4, 1)]])
    return instance, {(1, 4): CostFunction.power(2.0)}


def diamond_direct():
    """The diamond plus a direct 1 -> 4 link: the source drives both relays
    and the destination at once, so index tie-breaks leave the cold start."""
    instance = make_instance(
        4, {(1, 2): 0.9, (1, 3): 0.6, (1, 4): 0.3, (2, 4): 0.7, (3, 4): 0.8}, [(1, {4})],
        interference="explicit",
        explicit_actions=[[(1, 2, 1), (1, 3, 1), (1, 4, 1)], [(2, 4, 1), (3, 4, 1)]])
    return instance, {(1, 4): CostFunction.power(2.0)}


@st.composite
def graphs_with_flows(draw):
    """A connected graph on 3..6 nodes (a random tree plus up to two more
    edges), its reliabilities, and one or two unicast, multicast or
    broadcast flows: (n, reliability, flows)."""
    n = draw(st.integers(min_value=3, max_value=6))
    tree = [(draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)]
    extras = draw(st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                          max_size=2))
    edges = sorted(set(tree) | extras)
    rel = {e: draw(st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=0.9)))
           for e in edges}
    flows = []
    for src in sorted(draw(st.sets(st.integers(min_value=1, max_value=n),
                                   min_size=1, max_size=2))):
        others = [v for v in range(1, n + 1) if v != src]
        kind = draw(st.sampled_from(["unicast", "multicast", "broadcast"]))
        if kind == "unicast":
            dests = {draw(st.sampled_from(others))}
        elif kind == "multicast":
            dests = set(draw(st.lists(st.sampled_from(others), min_size=1,
                                      max_size=len(others))))
        else:
            dests = set(others)
        flows.append((src, dests))
    return n, rel, flows


@st.composite
def explicit_instances(draw):
    """An instance with a random explicit action list: each action drives a
    random set of edges, each in a random direction with a random flow, so
    two or more links often deliver into one node in the same slot."""
    n, rel, flows = draw(graphs_with_flows())
    sources = [src for src, _ in flows]
    actions = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        chosen = draw(st.sets(st.sampled_from(sorted(rel)), min_size=1))
        actions.append([(i, j, draw(st.sampled_from(sources))) if draw(st.booleans())
                        else (j, i, draw(st.sampled_from(sources))) for (i, j) in sorted(chosen)])
    return make_instance(n, rel, flows, interference="explicit", explicit_actions=actions)
