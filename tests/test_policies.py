import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aoisim.sweep
from aoisim import (CostFunction, DebtState, FlowControlConfig, RandomizedPolicy, SimConfig,
                    age_debt_action, broadcast_instance, enumerate_connected_graphs, gen_line,
                    make_instance, optimize_randomized, parse_config, run, run_sweep)
from aoisim.age import row_plan
from aoisim.policies import TIE_BREAKS, DriftEvaluator, get_drift_evaluator
from aoisim.sim import _loop_source
from conftest import diamond, diamond_direct, explicit_instances, graphs_with_flows, lyapunov
from dict_reference import (DictDriftEvaluator, advance_age, initial_buffer, initial_debt,
                            restricted_hop_distance, update_destination_debt,
                            update_intermediate_debt)
from row_reference import advance_age as advance_age_rows
from row_reference import update_destination_debt as update_destination_debt_rows
from row_reference import max_weight_action, single_hop_age_debt_action
from row_reference import update_intermediate_debt as update_intermediate_debt_rows


# ---------------- expected drift ----------------

def expected_drift(action, debt, age, buffer, targets, cost_fns, instance):
    """Exact expected one-slot Lyapunov drift of ``action`` (a member of the
    instance's action space, given as a tuple or an index)."""
    idx = action if isinstance(action, int) else instance.action_space.index(action)
    return age_debt_action(debt, age, buffer, targets, cost_fns, instance).scores[idx]


def test_idle_zero_drift_when_targets_cover_costs(two_hop):
    instance, cost_fns = two_hop
    debt = initial_debt(instance)
    age = {(1, 3): 1, (1, 2): 1}
    drift = expected_drift((), debt, age, initial_buffer(instance.flows),
                           {(1, 3): 10.0}, cost_fns, instance)
    assert drift == 0.0


def test_two_hop_cold_start_all_actions_equal(two_hop):
    # no packet at the relay: no action can move the destination queue
    instance, cost_fns = two_hop
    debt = DebtState(dest={(1, 3): 4.0})
    age = {(1, 3): 6, (1, 2): 6}
    buffer = initial_buffer(instance.flows)
    drifts = [expected_drift(a, debt, age, buffer, {(1, 3): 2.0},
                             cost_fns, instance)
              for a in instance.action_space]
    assert drifts[0] == drifts[1] == drifts[2]


def monte_carlo_drift(action, debt, age, buffer, targets, cost_fns, instance,
                      n_samples, seed):
    """Simulate one slot n_samples times, with the dict form of the slot's
    phases; returns (mean, stderr) of the Lyapunov change. Every sample's
    link bits are drawn at once, and the phases run once per distinct
    channel outcome, weighted by its count."""
    rng = np.random.default_rng(seed)
    # relays that send a held packet, and their first-hop-restricted hop
    # distances, worked out here rather than taken from the row plan
    links = {}
    for (tx, rx, k) in action:
        if tx != k and (tx, k) in buffer:
            links.setdefault((tx, k), []).append((tx, rx))
    hops = {(k, j, i): restricted_hop_distance(instance.adjacency, i, j, links[(i, k)])
            for (k, j, i) in debt.intermediate if (i, k) in links}
    t = 1000
    # the links that send: a source's fresh update, a relay's held packet
    sent = [(rx, k, t if tx == k else buffer[(tx, k)], instance.edge_prob(tx, rx))
            for (tx, rx, k) in action if tx == k or (tx, k) in buffer]
    bits = rng.random((n_samples, len(sent))) < [p for (*_, p) in sent]
    counts = np.bincount(bits @ (1 << np.arange(len(sent))), minlength=1 << len(sent))
    base = lyapunov(debt)
    total = 0.0
    total_sq = 0.0
    for outcome, count in enumerate(counts.tolist()):
        if not count:
            continue
        d = DebtState(dict(debt.dest), dict(debt.intermediate))
        deliveries = [(k, rx, t_g) for b, (rx, k, t_g, _) in enumerate(sent) if outcome >> b & 1]
        age_next = advance_age(dict(age), dict(buffer), deliveries, t)
        priced = update_destination_debt(d, cost_fns, age_next, targets)
        update_intermediate_debt(d, age, links, hops, targets, cost_fns, priced)
        delta = lyapunov(d) - base
        total += count * delta
        total_sq += count * delta * delta
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def consistent_state(instance, ages, t=1000):
    """Buffers implied by the age map (relays hold packets of that exact age)."""
    buffer = initial_buffer(instance.flows)
    for f in instance.flows:
        for i in instance.relays(f):
            buffer[(i, f.source)] = t - ages[(f.source, i)]
    return buffer


@pytest.mark.slow
def test_expected_drift_matches_monte_carlo_single_hop():
    # unreliable single-hop star; drift of serving vs idling, 10^6 samples
    inst = make_instance(3, {(1, 3): 0.7, (2, 3): 0.4}, [(1, {3}), (2, {3})],
                         eligibility="path")
    cost_fns = {(1, 3): CostFunction.power(2), (2, 3): CostFunction.linear(3.0)}
    debt = DebtState(dest={(1, 3): 2.0, (2, 3): 5.0})
    age = {(1, 3): 4, (2, 3): 2}
    buffer = initial_buffer(inst.flows)
    targets = {(1, 3): 6.0, (2, 3): 4.0}
    for action in inst.action_space:
        exact = expected_drift(action, debt, age, buffer, targets, cost_fns, inst)
        mc, se = monte_carlo_drift(action, debt, age, buffer, targets, cost_fns,
                                   inst, 1_000_000, seed=42)
        assert abs(exact - mc) <= 3 * se + 1e-9


def test_expected_drift_matches_monte_carlo_two_hop():
    inst = make_instance(3, {(1, 2): 0.8, (2, 3): 0.55}, [(1, {3})],
                         eligibility="path")
    cost_fns = {(1, 3): CostFunction.linear(1.0)}
    debt = DebtState(dest={(1, 3): 3.0}, intermediate={(1, 3, 2): 2.0})
    age = {(1, 3): 7, (1, 2): 3}
    buffer = consistent_state(inst, age)
    targets = {(1, 3): 4.0}
    for action in inst.action_space:
        exact = expected_drift(action, debt, age, buffer, targets, cost_fns, inst)
        mc, se = monte_carlo_drift(action, debt, age, buffer, targets, cost_fns,
                                   inst, 200_000, seed=7)
        assert abs(exact - mc) <= 3 * se + 1e-9


def test_multiple_senders_freshest_success_wins():
    # two possible transmitters into one destination in a single action
    inst = make_instance(
        3, {(1, 3): 0.5, (2, 3): 0.5, (1, 2): 1.0}, [(1, {3})],
        interference="explicit",
        explicit_actions=[[(1, 3, 1), (2, 3, 1)]])
    cost_fns = {(1, 3): CostFunction.linear(1.0)}
    debt = DebtState(dest={(1, 3): 1.0})
    age = {(1, 3): 9, (1, 2): 4}
    buffer = consistent_state(inst, age)
    action = ((1, 3, 1), (2, 3, 1))
    exact = expected_drift(action, debt, age, buffer, {(1, 3): 2.0},
                           cost_fns, inst)
    mc, se = monte_carlo_drift(action, debt, age, buffer, {(1, 3): 2.0},
                               cost_fns, inst, 200_000, seed=3)
    assert abs(exact - mc) <= 3 * se + 1e-9


# ---------------- age-debt argmin ----------------

def test_decision_attains_score_table_minimum(two_hop):
    instance, cost_fns = two_hop
    debt = DebtState(dest={(1, 3): 1.5}, intermediate={(1, 3, 2): 0.5})
    age = {(1, 3): 5, (1, 2): 2}
    buffer = consistent_state(instance, age)
    decision = age_debt_action(debt, age, buffer, {(1, 3): 2.5}, cost_fns,
                               instance, tie_break="first")
    assert decision.scores[decision.action_index] == min(decision.scores)


def test_tie_breaks_first_last_random(two_hop):
    instance, cost_fns = two_hop
    debt = initial_debt(instance)
    age = {(1, 3): 1, (1, 2): 1}
    buffer = initial_buffer(instance.flows)
    targets = {(1, 3): 10.0}
    first = age_debt_action(debt, age, buffer, targets, cost_fns, instance,
                            tie_break="first")
    last = age_debt_action(debt, age, buffer, targets, cost_fns, instance,
                           tie_break="last")
    assert first.action_index == 0
    assert last.action_index == 2
    rng = np.random.default_rng(0)
    picks = {age_debt_action(debt, age, buffer, targets, cost_fns, instance,
                             tie_break="random", rng=rng).action_index
             for _ in range(50)}
    assert picks == {0, 1, 2}


def test_random_tie_break_without_rng_is_rejected_in_any_state(two_hop):
    instance, cost_fns = two_hop
    tied = (initial_debt(instance), {(1, 3): 1, (1, 2): 1}, initial_buffer(instance.flows),
            {(1, 3): 10.0})
    age = {(1, 3): 5, (1, 2): 2}
    untied = (DebtState(dest={(1, 3): 1.5}, intermediate={(1, 3, 2): 0.5}), age,
              consistent_state(instance, age), {(1, 3): 2.5})
    for state, n_min in ((tied, 3), (untied, 1)):
        scores = age_debt_action(*state, cost_fns, instance).scores
        assert scores.count(min(scores)) == n_min
        with pytest.raises(ValueError, match="random tie-break needs an rng"):
            age_debt_action(*state, cost_fns, instance, tie_break="random")


def test_freshest_tie_break_pushes_packets_downstream(two_hop):
    instance, cost_fns = two_hop
    debt = initial_debt(instance)
    age = {(1, 3): 1, (1, 2): 1}
    buffer = initial_buffer(instance.flows)
    decision = age_debt_action(debt, age, buffer, {(1, 3): 10.0}, cost_fns,
                               instance, tie_break="freshest")
    assert decision.action == ((1, 2, 1),)


def test_idle_among_minimizers_when_quiet(two_hop):
    instance, cost_fns = two_hop
    debt = initial_debt(instance)
    age = {(1, 3): 1, (1, 2): 1}
    decision = age_debt_action(debt, age, initial_buffer(instance.flows),
                               {(1, 3): 10.0}, cost_fns, instance,
                               tie_break="first")
    assert decision.action == ()
    assert min(decision.scores) == decision.scores[0]


def test_unknown_tie_break_is_rejected(two_hop):
    # by the run's config before any slot, and by the public argmin
    with pytest.raises(ValueError, match="tie_break 'bogus'"):
        SimConfig(horizon=100, tie_break="bogus", targets=1.0)
    instance, cost_fns = two_hop
    with pytest.raises(ValueError, match="tie_break 'bogus'"):
        age_debt_action(initial_debt(instance), {(1, 3): 1, (1, 2): 1},
                        initial_buffer(instance.flows), {(1, 3): 1.0}, cost_fns, instance,
                        tie_break="bogus")


def any_line(rel=0.9):
    """The 3-node line under ``any`` eligibility: its actions include the
    relay sending the flow back into its source."""
    return make_instance(3, {(1, 2): rel, (2, 3): 0.8}, [(1, {3})],
                         interference="single-transmitter", eligibility="any")


@st.composite
def routed_instances(draw):
    """A ``graphs_with_flows`` instance under single-transmitter or matching
    interference."""
    n, rel, flows = draw(graphs_with_flows())
    return make_instance(n, rel, flows,
                         interference=draw(st.sampled_from(["single-transmitter", "matching"])),
                         eligibility=draw(st.sampled_from(["any", "path"])))


@given(st.one_of(st.builds(any_line), explicit_instances(), routed_instances()))
@settings(max_examples=150, deadline=None)
def test_relay_hops_count_first_hops_into_the_source(instance):
    # the plan's hop distances are the reference's, one BFS per first hop,
    # taken from the raw action. A first hop back into the flow's source
    # delivers to no tracked row, but it still starts a walk to the
    # destination: on the any-line, (2, 1, 1) gives 2-1-2-3
    line = any_line()
    assert row_plan(line).relay_hops[line.action_space.index(((2, 1, 1),))] == [3]
    plan = row_plan(instance)
    assert len(plan.relay_hops) == len(instance.action_space)
    for action, hops in zip(instance.action_space, plan.relay_hops):
        want = []
        for (k, j, i) in plan.relay_keys:
            first = [(tx, rx) for (tx, rx, f) in action if (tx, f) == (i, k)]
            want.append(restricted_hop_distance(instance.adjacency, i, j, first)
                        if first else None)
        assert hops == want


@st.composite
def drift_states(draw):
    """An instance (broadcast, line, two-hop, any-line, diamond or explicit
    actions) and a random dict state on it, relay queues kept or not."""
    shape = draw(st.sampled_from(["broadcast", "line", "two-hop", "any-line", "diamond",
                                  "explicit"]))
    rel = draw(st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=0.95)))
    if shape == "broadcast":
        n = draw(st.integers(min_value=3, max_value=5))
        graphs = enumerate_connected_graphs(n)
        instance, _ = broadcast_instance(n, graphs[draw(st.integers(0, len(graphs) - 1))],
                                         reliability=rel)
    elif shape == "line":
        instance, _ = gen_line(draw(st.integers(min_value=3, max_value=7)),
                               interference=draw(st.sampled_from(["parity",
                                                                  "single-transmitter"])),
                               reliability=rel)
    elif shape == "two-hop":
        instance = make_instance(3, {(1, 2): rel, (2, 3): 1.0}, [(1, {3})],
                                 interference="single-transmitter", eligibility="path")
    elif shape == "any-line":  # the relay may send the flow back to its source
        instance = any_line(rel)
    elif shape == "diamond":
        instance, _ = draw(st.sampled_from([diamond, diamond_direct]))()
    else:
        instance = draw(explicit_instances())
    pairs = instance.dest_pairs()
    cost_fns = {pair: draw(st.sampled_from([
        CostFunction.linear(1.5), CostFunction.power(2.0), CostFunction.power(0.5),
        CostFunction.exponential(cap=60.0), CostFunction.indicator(3)])) for pair in pairs}
    # small ages make senders' ages tie; zero debts and high targets make
    # actions tie
    age = {pair: draw(st.integers(min_value=1, max_value=5)) for pair in instance.tracked_pairs()}
    buffer = initial_buffer(instance.flows)
    for (k, i) in instance.tracked_pairs():
        if draw(st.integers(min_value=0, max_value=3)):
            buffer[(i, k)] = 0  # holds a packet
    queue = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0))
    debt = initial_debt(instance)
    debt.dest = {pair: draw(queue) for pair in pairs}
    debt.intermediate = ({key: draw(queue) for key in debt.intermediate}
                         if draw(st.booleans()) else {})
    targets = {pair: draw(st.sampled_from([0.0, 1.0, 2.5, 40.0])) for pair in pairs}
    return instance, debt, age, buffer, targets, cost_fns


def expected_age_sum(ev, action, age, held):
    """E[sum of all tracked ages next slot] of ``action``, as the compiled
    ``freshest`` tie-break folds it: 0.0, then p * next age over the
    action's rows, then outcomes, in order."""
    names = ev.decide.__globals__
    return reduce(add, names["picks"][action](names["age_terms"](age, held)))


@given(drift_states())
@settings(max_examples=300, deadline=None)
def test_score_and_decision_match_dict_reference(state):
    instance, debt, age, buffer, targets, cost_fns = state
    ev, ref = DriftEvaluator(instance), DictDriftEvaluator(instance)
    rows = ev.rows(debt, age, buffer, targets, cost_fns)
    want = ref.score(debt, age, buffer, targets, cost_fns)[0]
    assert [s.hex() for s in ev.decide(*rows, "first", None)[1]] == [s.hex() for s in want]
    # the next-age distributions the freshest tie-break reads, action by action
    dists = [ev.next_age_dist(key, rows[2], rows[3]) for key in ev.dist_keys]
    ref_dists = [ref.next_age_dist(key, age, buffer) for key in ref.dist_keys]
    for ids, ref_ids in zip(ev.action_dists, ref.action_dists):
        assert [dists[d] for d in ids] == [ref_dists[d] for d in ref_ids]
    # the freshest tie-break's sum for every action, tied or not; it prices
    # keys with at most one link from their compiled outcome, not a walk
    for i in range(len(instance.action_space)):
        assert (expected_age_sum(ev, i, rows[2], rows[3]).hex()
                == ref.expected_age_sum(i, ref_dists).hex()), i
    for tie_break in TIE_BREAKS:
        got = ev.decide(*rows, tie_break, np.random.default_rng(5))[0]
        assert got == ref.decide(debt, age, buffer, targets, cost_fns, tie_break,
                                 np.random.default_rng(5)), tie_break


@st.composite
def compiled_drift_cases(draw):
    """A small instance with reliabilities in (0, 1]: a line, a star, a
    diamond, a 4- or 5-node broadcast, or a multicast whose actions send two
    links into one row; and a random dict state on it, relay queues kept."""
    rel = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    shape = draw(st.sampled_from(["line", "star", "diamond", "broadcast", "multicast"]))
    if shape == "line":
        instance, _ = gen_line(draw(st.integers(min_value=3, max_value=6)),
                               interference=draw(st.sampled_from(["parity",
                                                                  "single-transmitter"])),
                               reliability=draw(rel))
    elif shape == "star":
        n = draw(st.integers(min_value=3, max_value=5))
        instance = make_instance(n, {(s, n): draw(rel) for s in range(1, n)},
                                 [(s, {n}) for s in range(1, n)],
                                 interference="single-transmitter", eligibility="path")
    elif shape == "diamond":  # the direct 1-4 link drives three links at once
        direct = draw(st.booleans())
        edges = [(1, 2), (1, 3), (2, 4), (3, 4)] + ([(1, 4)] if direct else [])
        instance = make_instance(
            4, {e: draw(rel) for e in edges}, [(1, {4})], interference="explicit",
            explicit_actions=[[(1, 2, 1), (1, 3, 1)] + ([(1, 4, 1)] if direct else []),
                              [(2, 4, 1), (3, 4, 1)]])
    elif shape == "broadcast":
        n = draw(st.sampled_from([4, 5]))
        graphs = enumerate_connected_graphs(n)
        edges = graphs[draw(st.integers(0, len(graphs) - 1))]
        instance = make_instance(n, {e: draw(rel) for e in edges},
                                 [(s, set(range(1, n + 1)) - {s}) for s in range(1, n + 1)],
                                 interference="single-transmitter", eligibility="path")
    else:  # rows (1, 3) and (1, 4) each take two links in one slot
        instance = make_instance(
            4, {e: draw(rel) for e in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]}, [(1, {3, 4})],
            interference="explicit",
            explicit_actions=[[(1, 2, 1), (1, 3, 1)], [(1, 3, 1), (2, 3, 1)],
                              [(2, 4, 1), (3, 4, 1)], [(2, 3, 1), (3, 4, 1)]])
    pairs = instance.dest_pairs()
    cost_fns = {pair: draw(st.sampled_from([
        CostFunction.linear(1.5), CostFunction.power(2.0), CostFunction.exponential(cap=60.0),
        CostFunction.indicator(3)])) for pair in pairs}
    age = {pair: draw(st.integers(min_value=1, max_value=6))
           for pair in instance.tracked_pairs()}
    buffer = initial_buffer(instance.flows)
    for (k, i) in instance.tracked_pairs():
        if draw(st.booleans()):
            buffer[(i, k)] = 0  # holds a packet
    queue = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0))
    debt = initial_debt(instance)
    debt.dest = {pair: draw(queue) for pair in pairs}
    debt.intermediate = {key: draw(queue) for key in debt.intermediate}
    targets = {pair: draw(st.sampled_from([0.0, 1.0, 2.5, 40.0])) for pair in pairs}
    return instance, debt, age, buffer, targets, cost_fns


@given(compiled_drift_cases())
@settings(max_examples=200, deadline=None)
def test_compiled_scores_and_decisions_match_dict_reference_with_relay_queues_on_and_off(case):
    instance, debt, age, buffer, targets, cost_fns = case
    ev, ref = DriftEvaluator(instance), DictDriftEvaluator(instance)
    for intermediate in (debt.intermediate, {}):  # kept, then off: None in every cell
        state = DebtState(dest=debt.dest, intermediate=intermediate)
        rows = ev.rows(state, age, buffer, targets, cost_fns)
        assert all((q is None) != bool(intermediate) for q in rows[1])
        want, dists = ref.score(state, age, buffer, targets, cost_fns)
        assert [s.hex() for s in ev.decide(*rows, "first", None)[1]] == [s.hex() for s in want]
        # the reference walks relay rows' keys only for the tie-break
        dists += [ref.next_age_dist(key, age, buffer) for key in ref.dist_keys[len(dists):]]
        assert [expected_age_sum(ev, i, rows[2], rows[3]).hex() for i in range(len(want))] \
            == [ref.expected_age_sum(i, dists).hex() for i in range(len(want))]
        for tie_break in TIE_BREAKS:
            got = ev.decide(*rows, tie_break, np.random.default_rng(7))[0]
            assert got == ref.decide(state, age, buffer, targets, cost_fns, tie_break,
                                     np.random.default_rng(7)), tie_break


def reliable_instances():
    """Instances whose every link delivers, so an action's one-slot change
    is deterministic: lines under both interference models, the diamond, a
    4-node broadcast, and a pipeline whose relays receive and forward in the
    same slot."""
    diamond_edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
    pipeline = [[(1, 2, 1), (2, 3, 1), (3, 4, 1)], [(1, 2, 1), (3, 4, 1)], [(2, 3, 1)]]
    return {
        "parity-line": gen_line(5, interference="parity")[0],
        "single-transmitter-line": gen_line(6, interference="single-transmitter")[0],
        "diamond": make_instance(
            4, {e: 1.0 for e in diamond_edges}, [(1, {4})], interference="explicit",
            explicit_actions=[[(1, 2, 1), (1, 3, 1)], [(2, 4, 1), (3, 4, 1)]]),
        "broadcast": broadcast_instance(4, enumerate_connected_graphs(4)[0])[0],
        "pipeline": make_instance(4, {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0}, [(1, {4})],
                                  interference="explicit", explicit_actions=pipeline),
    }


@pytest.mark.parametrize("name", reliable_instances())
def test_scores_equal_the_realized_lyapunov_change_on_reliable_links(name):
    # the compiled score and the slot's row rules (advance_age, then the
    # destination and relay debt updates, relay queues kept) are two copies
    # of each rule but the relay queue's case-1 charge, a template they
    # share; on reliable links the expected drift is the realized change
    instance = reliable_instances()[name]
    ev, plan = get_drift_evaluator(instance), row_plan(instance)
    costs = [CostFunction.linear(1.5), CostFunction.power(2.0), CostFunction.power(0.5)]
    rng = np.random.default_rng(11)
    for _ in range(400):
        age = [int(a) for a in rng.integers(1, 9, plan.n_rows)]
        held = [bool(h) for h in rng.integers(0, 2, plan.n_rows)]
        debt, targets, tables = [0.0] * plan.n_rows, [0.0] * plan.n_rows, [None] * plan.n_rows
        for r in plan.dest_rows:
            debt[r] = float(rng.choice([0.0, rng.uniform(0.0, 60.0)]))
            targets[r] = float(rng.uniform(0.0, 40.0))
            tables[r] = costs[int(rng.integers(len(costs)))]
        relay_debt = [float(rng.choice([0.0, rng.uniform(0.0, 60.0)])) for _ in plan.relays]
        before = sum(q * q for q in debt + relay_debt)
        scores = ev.decide(debt, relay_debt, age, held, targets, tables, "first", None)[1]
        for a, links in enumerate(plan.action_links):
            deliveries = [(r, 0 if m < 0 else age[m]) for (r, m, e) in links
                          if m < 0 or held[m]]
            d, rd = list(debt), list(relay_debt)
            age_next = advance_age_rows(age, list(held), deliveries)
            priced = update_destination_debt_rows(d, tables, age_next, targets, plan.dest_rows)
            update_intermediate_debt_rows(rd, plan.relays, plan.relay_hops[a], age, held, tables,
                                          targets, priced)
            realized = sum(q * q for q in d + rd) - before
            assert math.isclose(scores[a], realized, rel_tol=1e-9), (a, scores[a], realized)


def test_generated_source_is_the_same_in_every_interpreter():
    # a cache keyed by the text hits, and a run reproduces, only if the text
    # does not depend on the process: try two string-hash seeds. The text is
    # each evaluator's, whose compiled decide scores every action and breaks
    # ties, and each exact-drift slot loop's, which calls it
    code = ("import hashlib, aoisim\n"
            "from aoisim.policies import get_drift_evaluator\n"
            "from aoisim.sim import _loop_source\n"
            "line, _ = aoisim.gen_line(8, interference='single-transmitter', reliability=0.7)\n"
            "graph = aoisim.enumerate_connected_graphs(5)[10]\n"
            "bc, _ = aoisim.broadcast_instance(5, graph, reliability=0.9)\n"
            "text = get_drift_evaluator(line).source + get_drift_evaluator(bc).source\n"
            "text += _loop_source(line, 'exact', 'flow-control', True, False)\n"
            "text += _loop_source(bc, 'exact', 'fixed', False, True)\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=path,
                                                   PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "2")}
    line, _ = gen_line(8, interference="single-transmitter", reliability=0.7)
    bc, _ = broadcast_instance(5, enumerate_connected_graphs(5)[10], reliability=0.9)
    text = DriftEvaluator(line).source + DriftEvaluator(bc).source
    # one decide per evaluator, each ending in the freshest tie-break
    assert text.count("def decide(") == 2
    assert text.count("terms = age_terms(age, held)") == 2
    text += _loop_source(line, "exact", "flow-control", True, False)
    text += _loop_source(bc, "exact", "fixed", False, True)
    assert digests == {hashlib.sha256(text.encode()).hexdigest() + "\n"}
    with pytest.raises(AttributeError):
        get_drift_evaluator(line).source = text  # read-only


def test_pickled_instance_with_a_compiled_evaluator_sweeps_the_same_bytes(tmp_path,
                                                                         monkeypatch):
    instance, cost_fns = gen_line(5, interference="single-transmitter", reliability=0.8)
    cfg = SimConfig(horizon=300, seed=0, policy="age-debt", target_mode="flow-control",
                    flow_control=FlowControlConfig(V=10.0, alpha_max=20.0))
    want = run(instance, cost_fns, cfg)
    copy = pickle.loads(pickle.dumps(instance))
    # an instance pickles as data only: the copy holds no plan, evaluator or
    # loop, and rebuilds the same evaluator text
    assert (copy._row_plan, copy._drift_evaluator, copy._slot_loops) == (None, None, {})
    assert get_drift_evaluator(copy).source == instance._drift_evaluator.source
    assert run(copy, cost_fns, cfg) == want
    # every task, serial or in a worker, runs on the unpickled copy
    monkeypatch.setattr(aoisim.sweep, "expand_scenarios",
                        lambda config: [aoisim.sweep.Scenario("line", "", copy, cost_fns)])
    config, errors = parse_config(json.dumps({
        "network": {"generator": "line", "n": 5},
        "policies": [{"name": "age-debt", "target_mode": "flow-control", "V": 10,
                      "alpha_max": 20}],
        "sim": {"horizon": 300, "seeds": [0, 1, 2]}}))
    assert errors == []
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    run_sweep(config, str(one), jobs=1)
    run_sweep(config, str(two), jobs=2)
    assert two.read_bytes() == one.read_bytes()
    assert f"{want.sum_cost:.10g}" in one.read_text()


# ---------------- single-hop closed form ----------------

def test_closed_form_example():
    f = CostFunction.linear(1.0)
    idx = single_hop_age_debt_action([4, 2], [2.0, 3.0], [1.0, 1.0], [f, f])
    # scores: 1*2*(5-1)=8 vs 1*3*(3-1)=6
    assert idx == 0


def test_closed_form_all_zero_debt_ties_to_first():
    f = CostFunction.linear(1.0)
    assert single_hop_age_debt_action([3, 5], [0.0, 0.0], [1.0, 1.0], [f, f]) == 0


def bound_term_oracle(ages, debts, probs, fns):
    """Drift upper bound evaluated by brute force: argmin over the served
    source of sum_i Q_i f_i(A_i+1) + p_j Q_j (f_j(1) - f_j(A_j+1))."""
    common = sum(q * f(a + 1) for a, q, f in zip(ages, debts, fns))
    best, best_v = 0, None
    for j, (a, q, p, f) in enumerate(zip(ages, debts, probs, fns)):
        v = common + p * q * (f(1) - f(a + 1))
        if best_v is None or v < best_v:
            best, best_v = j, v
    return best


def test_closed_form_matches_bound_oracle_randomized():
    rng = np.random.default_rng(123)
    families = [
        lambda r: CostFunction.linear(float(r.uniform(0.2, 5.0))),
        lambda r: CostFunction.power(2),
        lambda r: CostFunction.power(3),
        lambda r: CostFunction.exponential(),
        lambda r: CostFunction.indicator(int(r.integers(2, 8))),
    ]
    for _ in range(300):
        n = int(rng.integers(2, 5))
        ages = [int(rng.integers(1, 12)) for _ in range(n)]
        debts = [float(rng.uniform(0, 10)) for _ in range(n)]
        probs = [float(rng.uniform(0.2, 1.0)) for _ in range(n)]
        fns = [families[int(rng.integers(len(families)))](rng) for _ in range(n)]
        assert single_hop_age_debt_action(ages, debts, probs, fns) == \
            bound_term_oracle(ages, debts, probs, fns)


def test_exact_drift_argmax_agrees_with_closed_form_score_on_stars():
    # the Lemma-style score ordering agrees with the closed form's argmax
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_src = int(rng.integers(2, 5))
        hub = n_src + 1
        rel = {(s, hub): float(rng.uniform(0.3, 1.0)) for s in range(1, hub)}
        inst = make_instance(hub, rel, [(s, {hub}) for s in range(1, hub)],
                             eligibility="path")
        fns = {(s, hub): CostFunction.power(2) for s in range(1, hub)}
        ages = {(s, hub): int(rng.integers(1, 10)) for s in range(1, hub)}
        debts = DebtState(dest={(s, hub): float(rng.uniform(0, 5))
                                for s in range(1, hub)})
        pos = single_hop_age_debt_action(
            [ages[(s, hub)] for s in range(1, hub)],
            [debts.dest[(s, hub)] for s in range(1, hub)],
            [rel[(s, hub)] for s in range(1, hub)],
            [fns[(s, hub)] for s in range(1, hub)])
        scores = [rel[(s, hub)] * debts.dest[(s, hub)] *
                  (fns[(s, hub)](ages[(s, hub)] + 1) - fns[(s, hub)](1))
                  for s in range(1, hub)]
        assert scores[pos] == max(scores)


# ---------------- max-weight ----------------

def test_max_weight_examples():
    assert max_weight_action([3, 2], [1.0, 1.0], [1.0, 1.0]) == 0  # 15 vs 8
    assert max_weight_action([4, 4], [0.5, 1.0], [1.0, 1.0]) == 1


def test_max_weight_symmetric_two_sources_alternates():
    # reliable symmetric system settles into round-robin: ages cycle (1, 2)
    from aoisim import SimConfig, gen_star, run
    inst, costs = gen_star(3, weight_rule="unit", reliability_rule="reliable")
    m = run(inst, costs, SimConfig(horizon=4000, seed=0, policy="max-weight"))
    assert m.per_pair_cost[(1, 3)] == pytest.approx(1.5, abs=0.01)
    assert m.per_pair_cost[(2, 3)] == pytest.approx(1.5, abs=0.01)


# ---------------- randomized ----------------

def test_point_mass_always_picks_same(two_hop):
    instance, _ = two_hop
    pol = RandomizedPolicy((1.0, 0.0, 0.0))
    rng = np.random.default_rng(0)
    assert all(instance.action_space[pol.sample_index(rng)] == () for _ in range(20))


def test_uniform_two_actions_split():
    pol = RandomizedPolicy((0.0, 0.5, 0.5))
    rng = np.random.default_rng(1)
    picks = [pol.sample_index(rng) for _ in range(4000)]
    assert abs(picks.count(1) / 4000 - 0.5) < 0.03
    assert 0 not in picks


def test_distribution_must_normalize():
    with pytest.raises(ValueError):
        RandomizedPolicy((0.5, 0.6))
    with pytest.raises(ValueError):
        RandomizedPolicy((-0.1, 1.1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite probability"):
            RandomizedPolicy((bad, 1.0))


def test_empirical_frequencies_chi_square():
    probs = (0.1, 0.6, 0.3)
    pol = RandomizedPolicy(probs)
    rng = np.random.default_rng(2)
    n = 100_000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[pol.sample_index(rng)] += 1
    chi2 = sum((c - n * p) ** 2 / (n * p) for c, p in zip(counts, probs))
    assert chi2 < 13.82  # chi-square_{2, 0.999}


def test_two_hop_fair_coin_keeps_age_finite(two_hop):
    from aoisim import SimConfig, run
    instance, cost_fns = two_hop
    cfg = SimConfig(horizon=100_000, seed=0, policy="randomized",
                    policy_params={"probabilities": (0.0, 0.5, 0.5)})
    m = run(instance, cost_fns, cfg)
    assert m.sum_cost < 10.0  # finite average age, far from linear growth


# ---------------- randomized tuning ----------------

def grid_simplex(n, step):
    """All probability vectors on the n-simplex with the given resolution."""
    k = round(1.0 / step)
    out = []

    def rec(prefix, left):
        if len(prefix) == n - 1:
            out.append(tuple(x / k for x in prefix + [left]))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], k)
    return out


def run_randomized(instance, cost_fns, probs, horizon=2000, seeds=(0, 1)):
    from aoisim import SimConfig, run
    total = 0.0
    for s in seeds:
        cfg = SimConfig(horizon=horizon, seed=s, policy="randomized",
                        policy_params={"probabilities": tuple(probs)})
        total += run(instance, cost_fns, cfg).sum_cost
    return total / len(seeds)


def test_single_edge_tuner_finds_point_mass():
    inst = make_instance(2, {(1, 2): 1.0}, [(1, {2})], eligibility="path")
    cost_fns = {(1, 2): CostFunction.linear(1.0)}
    pol = optimize_randomized(inst, cost_fns, search_budget=40,
                              rng=np.random.default_rng(0), horizon=500)
    assert pol.probabilities[1] > 0.95


def test_tuner_scores_candidates_as_run_does(monkeypatch):
    # the tuner draws each seed's channels once and scores every candidate
    # on them; its cost must be the bits that run() reports
    from aoisim import SimConfig, gen_line, run
    instance, cost_fns = gen_line(5, interference="parity")
    monkeypatch.setattr(aoisim.policies, "TUNING_SEEDS", (2, 9))
    pol = optimize_randomized(instance, cost_fns, search_budget=12,
                              rng=np.random.default_rng(3), horizon=4500)
    costs = [run(instance, cost_fns, SimConfig(
        horizon=4500, seed=s, policy="randomized",
        policy_params={"probabilities": pol.probabilities})).sum_cost for s in (2, 9)]
    assert pol.tuned_cost == sum(costs) / len(costs)


def test_tuner_needs_a_budget_and_a_horizon(two_hop):
    # checked before any run: a budget below one used to return the first
    # candidate after one evaluation
    instance, cost_fns = two_hop
    for kw in ({"search_budget": 0}, {"search_budget": -3}, {"search_budget": 2.5},
               {"horizon": 0}, {"horizon": True}):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            optimize_randomized(instance, cost_fns, **kw)


def test_two_hop_tuner_near_fair_coin(two_hop):
    instance, cost_fns = two_hop
    pol = optimize_randomized(instance, cost_fns, search_budget=120,
                              rng=np.random.default_rng(0), horizon=2000)
    # grid oracle at 0.05 resolution
    grid_best = min(run_randomized(instance, cost_fns, g)
                    for g in grid_simplex(3, 0.05))
    assert pol.tuned_cost <= grid_best * 1.05
    assert abs(pol.probabilities[1] - 0.5) < 0.15
    assert abs(pol.probabilities[2] - 0.5) < 0.15


@pytest.mark.slow
def test_five_node_line_tuner_within_grid_oracle():
    # oracle: coarse simplex sweep refined down to a 0.01-resolution local
    # grid around the incumbent (a full 0.01 sweep of the 5-action simplex
    # would need ~180k simulations)
    from aoisim import gen_line
    instance, cost_fns = gen_line(5, interference="single-transmitter")
    n = len(instance.action_space)
    assert n == 5  # idle + four forward hops

    def objective(probs):
        return run_randomized(instance, cost_fns, probs, horizon=1000)

    best = min(grid_simplex(n, 0.1), key=objective)
    k = 100
    cell = [round(p * k) for p in best]
    for radius, step in ((8, 2), (2, 1)):  # 0.02 then 0.01 resolution
        offsets = range(-radius, radius + 1, step)
        candidates = []
        for d1 in offsets:
            for d2 in offsets:
                for d3 in offsets:
                    for d4 in offsets:
                        c = [cell[0], cell[1] + d1, cell[2] + d2,
                             cell[3] + d3, cell[4] + d4]
                        if all(x >= 0 for x in c) and sum(c) > 0:
                            candidates.append(c)
        cell = min(candidates,
                   key=lambda c: objective(tuple(x / sum(c) for x in c)))
    grid_best = objective(tuple(x / sum(cell) for x in cell))

    pol = optimize_randomized(instance, cost_fns, search_budget=200,
                              rng=np.random.default_rng(0), horizon=2000)
    tuned = objective(pol.probabilities)
    assert tuned <= grid_best * 1.05
