import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisim import (CostFunction, FlowControlConfig, GradientDescentConfig, SimConfig,
                    broadcast_instance, dp_optimal, enumerate_connected_graphs, gen_line,
                    gen_star, make_instance, run, sim, stability_diagnostic)
from conftest import explicit_instances, graphs_with_flows
from dict_reference import dict_slot_loop


def single_source(p=1.0):
    inst = make_instance(2, {(1, 2): p}, [(1, {2})], eligibility="path")
    return inst, {(1, 2): CostFunction.linear(1.0)}


def test_serve_always_reliable_source():
    inst, costs = single_source()
    cfg = SimConfig(horizon=2000, seed=0, policy="constant",
                    policy_params={"action_index": 1}, targets=1.5)
    m = run(inst, costs, cfg)
    assert m.sum_cost == pytest.approx(1.0)
    assert m.per_pair_debt_rate[(1, 2)] == 0.0


def test_sum_cost_equals_pair_sum():
    inst, costs = gen_star(5, reliability_rule="reliable")
    m = run(inst, costs, SimConfig(horizon=3000, seed=1, policy="max-weight"))
    assert m.sum_cost == pytest.approx(math.fsum(m.per_pair_cost.values()), abs=1e-9)


def test_bitwise_determinism():
    inst, costs = gen_star(5, reliability_rule="uniform")
    cfg = SimConfig(horizon=5000, seed=7, policy="age-debt", targets=4.0)
    a = run(inst, costs, cfg)
    b = run(inst, costs, cfg)
    assert a.per_pair_cost == b.per_pair_cost
    assert a.per_pair_debt_rate == b.per_pair_debt_rate
    assert a.max_sum_debt == b.max_sum_debt
    c = run(inst, costs, SimConfig(**{**cfg.__dict__, "seed": 8}))
    assert c.per_pair_cost != a.per_pair_cost


def test_ages_never_below_one_and_delivery_only_helps():
    inst, costs = gen_line(4, interference="single-transmitter")
    cfg = SimConfig(horizon=3000, seed=3, policy="age-debt",
                    target_mode="flow-control",
                    flow_control=FlowControlConfig(V=10, alpha_max=40),
                    trace_detail="full")
    m = run(inst, costs, cfg)
    ages = [row[2] for row in m.trace]
    assert min(ages) >= 1
    # age never drops by more than a reset-to-delivery allows: A(t+1) >= 2
    # whenever A(t) >= 1 except the one-hop fresh case handled by >= 1
    diffs = [b - a for a, b in zip(ages, ages[1:])]
    assert max(diffs) <= 1


def test_age_buffer_consistency_invariant():
    # replay the run and check that a node holds a packet iff it is at most
    # t + 1 old after slot t: one that never received one is exactly t + 2
    from aoisim.age import row_plan
    from aoisim.channels import ChannelProcess
    from row_reference import advance_age

    inst, costs = gen_line(5, interference="parity")
    cfg = SimConfig(horizon=400, seed=2, policy="age-debt",
                    target_mode="flow-control",
                    flow_control=FlowControlConfig(V=10, alpha_max=40))
    run(inst, costs, cfg)  # the engine itself must not crash

    # independent replay with a fair-coin policy exercising the same invariant
    rng = np.random.default_rng(0)
    plan = row_plan(inst)
    age = [1] * plan.n_rows
    held = [False] * plan.n_rows
    for t, bits in enumerate(ChannelProcess(inst, 2).bits(400)):
        links = plan.action_links[int(rng.integers(len(inst.action_space)))]
        deliveries = [(r, 0 if m < 0 else age[m]) for (r, m, e) in links
                      if bits[e] and (m < 0 or held[m])]
        age = advance_age(age, held, deliveries)
        for r in range(plan.n_rows):
            assert held[r] == (age[r] <= t + 1)
            assert held[r] or age[r] == t + 2


def test_dp_table_rejects_another_instances_solution():
    inst3, costs3 = gen_star(3, reliability_rule="reliable")
    inst4, costs4 = gen_star(4, reliability_rule="reliable")
    cfg = SimConfig(horizon=10, policy="dp-table",
                    policy_params={"solution": dp_optimal(inst3, costs3, a_cap=6)})
    with pytest.raises(ValueError, match="tracked pairs"):
        run(inst4, costs4, cfg)


@pytest.mark.parametrize("trace_detail", ["metrics-only", "full"])
@pytest.mark.parametrize("policy, params, match", [
    ("age-debt", {"variant": "exakt"}, "variant"),
    ("max-weight", {}, "single-hop star"),
    ("randomized", {"probabilities": (0.5, 0.5)}, "size"),
    ("constant", {"action_index": 3}, "action_index"),
    ("constant", {"action_index": True}, "action_index"),  # a bool would run as action 1
])
def test_run_rejects_a_policy_that_does_not_fit(policy, params, match, trace_detail):
    # a two-hop line with three actions: not a star; metrics-only randomized
    # and constant runs take the open-loop path
    instance, cost_fns = gen_line(3, interference="single-transmitter")
    cfg = SimConfig(horizon=10, policy=policy, policy_params=params, targets=1.0,
                    trace_detail=trace_detail)
    with pytest.raises(ValueError, match=match):
        run(instance, cost_fns, cfg)


@pytest.mark.parametrize("kw, match", [
    ({"horizon": True}, "horizon"),     # a bool would run one slot
    ({"horizon": 2.5}, "horizon"),
    ({"horizon": 0}, "horizon"),
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),        # would reuse seed 0's channel bits
    ({"seed": 1.0}, "seed"),
])
def test_config_rejects_a_bad_horizon_or_seed(kw, match):
    with pytest.raises(ValueError, match=match):
        SimConfig(**{"horizon": 10, **kw})
    SimConfig(horizon=1, seed=2 ** 64 - 1)


@pytest.mark.parametrize("mode, kw", [
    ("fixed", {"targets": math.inf}),
    ("fixed", {"targets": math.nan}),
    ("fixed", {"targets": {(1, 3): 2.0, (2, 3): -math.inf}}),
    ("fixed", {"targets": 10 ** 400}),  # past the float range
    ("gradient-descent", {"initial": math.nan}),
    ("gradient-descent", {"initial": 2.0, "floor": math.inf}),
    ("gradient-descent", {"initial": 2.0, "floor": {(2, 3): math.nan}}),
])
def test_non_finite_targets_are_rejected_with_their_pair(mode, kw):
    # an infinite target read every pair stable and a NaN one every pair
    # unstable
    inst, costs = gen_star(3, reliability_rule="reliable")
    if mode == "fixed":
        cfg = SimConfig(horizon=200, policy="age-debt", **kw)
    else:
        cfg = SimConfig(horizon=200, policy="age-debt", target_mode=mode,
                        gradient_descent=GradientDescentConfig(
                            epoch_length=20, step=0.5, threshold=0.1, **kw))
    with pytest.raises(ValueError, match=r"non-finite value .* for pair \(\d, 3\)"):
        run(inst, costs, cfg)


def test_stability_diagnostic_thresholds():
    inst, costs = single_source()
    cfg = SimConfig(horizon=10_000, seed=0, policy="constant",
                    policy_params={"action_index": 1}, targets=1.5)
    m = run(inst, costs, cfg)
    assert stability_diagnostic(m) == {(1, 2): True}

    cfg2 = SimConfig(**{**cfg.__dict__, "targets": 0.5})
    m2 = run(inst, costs, cfg2)
    # Q(T)/T -> 0.5 >= max(0.01 * 0.5, 0.1)
    assert stability_diagnostic(m2) == {(1, 2): False}


def test_gradient_descent_floor_scalar_or_per_pair():
    # targets only descend here, one step at each of the run's 19 epoch
    # boundaries, from 40 to 21 unless floored: a scalar floor holds every
    # pair, a per-pair one each its own, and the default f(1) is below 21
    inst, costs = gen_star(3, reliability_rule="reliable")
    pairs = inst.dest_pairs()

    def final(floor):
        gd = GradientDescentConfig(epoch_length=20, step=1.0, threshold=1e6, initial=40.0,
                                   floor=floor)
        return run(inst, costs, SimConfig(horizon=400, target_mode="gradient-descent",
                                          gradient_descent=gd)).final_targets

    assert final(30) == dict.fromkeys(pairs, 30.0)
    assert final({pairs[0]: 25.0, pairs[1]: 35.0}) == {pairs[0]: 25.0, pairs[1]: 35.0}
    assert final(None) == dict.fromkeys(pairs, 21.0)


def test_destination_only_two_hop_starves(two_hop):
    instance, cost_fns = two_hop
    cfg = SimConfig(horizon=2000, seed=0, policy="age-debt",
                    policy_params={"variant": "exact"}, targets=3.0,
                    tie_break="last", use_intermediate_queues=False)
    m = run(instance, cost_fns, cfg)
    # the relay never gets a packet, so the destination queue grows linearly
    assert m.per_pair_debt_rate[(1, 3)] > 0.4 * 2000


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="once every relay holds the destination's own packet, exact "
                          "age-debt prices each forward above idle and idles for good "
                          "(19 958 of 20 000 slots here)")
def test_flow_control_does_not_starve_an_unreliable_parity_line():
    # 7.0977 is the DP gain of this line at a_cap 30
    instance, cost_fns = gen_line(5, "parity", reliability=0.7)
    m = run(instance, cost_fns, SimConfig(
        horizon=20_000, seed=0, target_mode="flow-control",
        flow_control=FlowControlConfig(V=10, alpha_max=20), tie_break="freshest"))
    assert m.sum_cost <= 1.1 * 7.0977


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="nothing credits filling a relay: a first hop into a node that is "
                          "not a destination has idle's one-slot drift, so serving the "
                          "one-hop pair wins every slot and the far destination never hears")
@pytest.mark.parametrize("edges, flows, p, tie_break", [
    # symptom A, two unicast flows: pair (5, 4) averages 10 001.5
    ([(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)], [(5, {4}), (1, {2})], 1.0, "freshest"),
    # symptom B, one multicast: pair (4, 5) averages 10 001.5
    ([(1, 2), (1, 3), (1, 5), (2, 3), (2, 4)], [(4, {2, 5})], 1.0, "freshest"),
    # B at p = 0.7 under first; freshest reads 34.0 there, within the rule
    ([(1, 2), (1, 3), (1, 5), (2, 3), (2, 4)], [(4, {2, 5})], 0.7, "first"),
], ids=["A", "B", "B-unreliable"])
def test_flow_control_serves_every_pair_of_a_small_multi_flow_instance(edges, flows, p,
                                                                       tie_break):
    # the liveness census's starvation rule: no pair's average cost exceeds T / 10
    instance = make_instance(5, {e: p for e in edges}, flows,
                             interference="single-transmitter", eligibility="path")
    cost_fns = {pair: CostFunction.linear(1.0) for pair in instance.dest_pairs()}
    m = run(instance, cost_fns, SimConfig(
        horizon=20_000, seed=0, target_mode="flow-control",
        flow_control=FlowControlConfig(V=10, alpha_max=20), tie_break=tie_break))
    assert max(m.per_pair_cost.values()) <= 20_000 / 10


def test_runaway_abort(monkeypatch):
    # the slot loop's own check, in two star loops; the open-loop path's is
    # tested below
    monkeypatch.setattr(sim, "RUNAWAY_AGE", 2 ** 12)
    # closed form: debts stay 0 under targets this high, so every score
    # ties at 0 and the first source wins every slot; the second is never
    # served
    star, star_costs = gen_star(3, reliability_rule="reliable")
    idle, idle_costs = single_source()  # the one-row star, idle forever
    for inst, costs, cfg in (
            (star, star_costs, SimConfig(horizon=50_000, seed=0, targets=1e9)),
            (idle, idle_costs, SimConfig(horizon=50_000, seed=0, policy="constant",
                                         policy_params={"action_index": 0}, targets=1.0))):
        with pytest.raises(RuntimeError, match="runaway"):
            sim._slot_loop(inst, costs, cfg)
        assert len(inst._slot_loops) == 1


def test_full_trace_and_histograms():
    inst, costs = single_source()
    cfg = SimConfig(horizon=100, seed=0, policy="constant",
                    policy_params={"action_index": 1}, targets=1.5,
                    trace_detail="full")
    m = run(inst, costs, cfg)
    assert len(m.trace) == 100
    t, pair, a, b, q, alpha, action_idx = m.trace[0]
    assert (t, pair, a, b, q, alpha, action_idx) == (0, (1, 2), 1, 1.0, 0.0, 1.5, 1)
    assert m.age_histograms[(1, 2)] == {1: 100}


def test_replicate_runs_all_seeds():
    inst, costs = single_source(p=0.7)
    cfg = SimConfig(horizon=500, seed=0, policy="constant",
                    policy_params={"action_index": 1}, targets=3.0)
    out = [run(inst, costs, replace(cfg, seed=s)) for s in (0, 1, 2)]
    assert [m.seed for m in out] == [0, 1, 2]
    assert len({m.sum_cost for m in out}) > 1


def test_slot_loop_prices_each_age_once_per_run():
    # a plain callable goes into the run's tables like a CostFunction: no
    # (pair, age) is priced twice, by the debts, the metrics or the trace
    priced = []

    def recording(pair, f):
        def cost(age):
            priced.append((pair, age))
            return f(age)
        return cost

    inst, costs = gen_star(5, rng=np.random.default_rng(0))
    n = len(inst.action_space)
    cfg = SimConfig(horizon=1000, seed=0, policy="randomized",
                    policy_params={"probabilities": tuple([1.0 / n] * n)},
                    trace_detail="full")
    m = run(inst, {pair: recording(pair, f) for pair, f in costs.items()}, cfg)
    assert priced and len(set(priced)) == len(priced)
    assert m.per_pair_cost == run(inst, costs, cfg).per_pair_cost


@pytest.mark.parametrize("horizon, kw", [
    (200_000, {"targets": 0.0}),  # the open-loop path
    # the slot loop runs ~25x slower under tracemalloc
    (50_000, {"target_mode": "flow-control",
              "flow_control": FlowControlConfig(V=1e18, alpha_max=1.0)}),
])
def test_idle_run_leaves_nothing_on_its_cost_function(horizon, kw):
    # idle slots age the source without bound: the run's cost tables, one
    # float per age reached, go with the run
    inst, costs = single_source()
    cfg = SimConfig(horizon=10, policy="constant", policy_params={"action_index": 0}, **kw)
    run(inst, costs, cfg)  # builds the instance's row plan
    fresh = {(1, 2): CostFunction.linear(1.0)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(inst, fresh, replace(cfg, horizon=horizon))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_max_weight_reads_plain_costs_as_unit_weights():
    inst, _ = gen_star(3)
    cfg = SimConfig(horizon=100, policy="max-weight")
    plain = run(inst, {pair: (lambda a: a) for pair in inst.dest_pairs()}, cfg)
    unit = run(inst, {pair: CostFunction.linear(1.0) for pair in inst.dest_pairs()}, cfg)
    assert repr(plain) == repr(unit)


@pytest.mark.parametrize("horizon", [300, 4096, 4200])
def test_slot_loop_draws_full_block_bits_for_its_slots_only(monkeypatch, horizon):
    # below, at and across the first block boundary: the loop's channel
    # process draws each block below the horizon once, and no row past it,
    # with the bits of a fresh process's full blocks
    from aoisim.channels import ChannelProcess

    drawn = []

    class Recording(ChannelProcess):
        def _rows(self, start, stop):
            drawn.append((start, stop, super()._rows(start, stop)))
            return drawn[-1][2]

    inst = make_instance(3, {(1, 2): 0.5, (2, 3): 0.3}, [(1, {3})])
    monkeypatch.setattr(sim, "ChannelProcess", Recording)
    sim._slot_loop(inst, {(1, 3): CostFunction.linear(1.0)}, SimConfig(
        horizon=horizon, seed=5, policy="constant", policy_params={"action_index": 1},
        targets=1.0))
    assert [(start, stop) for start, stop, _ in drawn] == \
        [(start, min(start + 4096, horizon)) for start in range(0, horizon, 4096)]
    full = ChannelProcess(inst, seed=5)
    for start, stop, rows in drawn:
        assert np.array_equal(rows, full._rows(start, start + 4096)[:stop - start])


def test_flow_control_targets_move_every_slot(two_hop):
    instance, cost_fns = two_hop
    cfg = SimConfig(horizon=300, seed=0, policy="age-debt",
                    target_mode="flow-control",
                    flow_control=FlowControlConfig(V=3.0, alpha_max=9.0),
                    trace_detail="full")
    m = run(instance, cost_fns, cfg)
    alphas = {row[5] for row in m.trace}
    assert alphas <= {1.0, 9.0}
    assert len(alphas) == 2  # both branches of the threshold rule fire


def test_open_loop_runaway_abort(monkeypatch):
    # the same abort on the open-loop path: idle forever at target 0
    monkeypatch.setattr(sim, "RUNAWAY_AGE", 2 ** 12)
    inst, costs = single_source()
    cfg = SimConfig(horizon=50_000, seed=0, policy="constant",
                    policy_params={"action_index": 0})
    with pytest.raises(RuntimeError, match="runaway"):
        run(inst, costs, cfg)


# ---------------- open-loop runs against the slot loop ----------------

def as_plain(cost_fns):
    """The costs as plain callables, which the run must tabulate itself."""
    return {pair: (lambda a, f=f: f(a)) for pair, f in cost_fns.items()}


def assert_same_metrics(instance, cost_fns, cfg):
    a = run(instance, cost_fns, cfg)
    b = sim._slot_loop(instance, cost_fns, cfg)
    for f in fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


@pytest.mark.parametrize("build", [
    lambda: gen_line(5, interference="parity"),
    lambda: broadcast_instance(5, enumerate_connected_graphs(5)[0], reliability=0.8),
])
def test_open_loop_matches_slot_loop_across_blocks(build):
    # stamps, cost sums and debts carry over two block boundaries; costs
    # with fractional values make the summation order show
    instance, cost_fns = build()
    cost_fns = {pair: CostFunction.power(1.5) for pair in cost_fns}
    n = len(instance.action_space)
    probs = tuple([0.0] + [1.0 / (n - 1)] * (n - 1))
    for seed in range(4):
        assert_same_metrics(instance, cost_fns, SimConfig(
            horizon=9000, seed=seed, policy="randomized",
            policy_params={"probabilities": probs}, targets=2.0 * (seed % 2)))


@st.composite
def open_loop_cases(draw):
    n, rel, flows = draw(graphs_with_flows())
    instance = make_instance(
        n, rel, flows,
        interference=draw(st.sampled_from(["single-transmitter", "matching"])),
        eligibility=draw(st.sampled_from(["any", "path"])))
    cost_kinds = [
        st.builds(CostFunction.linear, st.floats(min_value=0.0, max_value=3.0)),
        st.builds(CostFunction.power, st.floats(min_value=0.0, max_value=2.5)),
        st.builds(CostFunction.exponential, st.just(50.0)),
        st.builds(CostFunction.indicator, st.integers(min_value=1, max_value=6)),
    ]
    pairs = instance.dest_pairs()
    cost_fns = {pair: draw(st.one_of(cost_kinds)) for pair in pairs}
    n_actions = len(instance.action_space)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(min_value=0, max_value=5),
                                min_size=n_actions, max_size=n_actions))
        if sum(weights) == 0:
            weights[-1] = 1
        policy = {"policy": "randomized",
                  "policy_params": {"probabilities": tuple(w / sum(weights) for w in weights)}}
    else:
        # a numpy integer is an integer too
        index = draw(st.sampled_from([int, np.int64]))
        policy = {"policy": "constant", "policy_params": {
            "action_index": index(draw(st.integers(min_value=0, max_value=n_actions - 1)))}}
    targets = draw(st.one_of(
        st.just(0.0), st.floats(min_value=0.25, max_value=6.0),
        st.fixed_dictionaries({pair: st.sampled_from([0.0, 0.5, 2.0, 4.5]) for pair in pairs})))
    cfg = SimConfig(horizon=draw(st.integers(min_value=1, max_value=300)),
                    seed=draw(st.integers(min_value=0, max_value=2 ** 20)),
                    targets=targets, **policy)
    return instance, cost_fns, cfg


@given(open_loop_cases(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_open_loop_matches_slot_loop(case, plain):
    instance, cost_fns, cfg = case
    assert_same_metrics(instance, as_plain(cost_fns) if plain else cost_fns, cfg)


# ---------------- the row loop against the dict reference ----------------

@st.composite
def closed_loop_cases(draw):
    """Small stars, lines, broadcasts, general graphs and explicit action
    lists, under every closed-loop policy and target mode."""
    shape = draw(st.sampled_from(["star", "line", "broadcast", "graph", "explicit"]))
    rel = draw(st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=0.95)))
    if shape == "star":
        instance, cost_fns = gen_star(
            draw(st.integers(min_value=2, max_value=6)),
            reliability_rule=draw(st.sampled_from(["uniform", "reliable"])),
            rng=np.random.default_rng(draw(st.integers(min_value=0, max_value=99))),
            cost_rule=draw(st.sampled_from(["weighted-linear", "functions-of-age"])))
    elif shape == "line":
        instance, cost_fns = gen_line(
            draw(st.integers(min_value=2, max_value=6)),
            interference=draw(st.sampled_from(["parity", "single-transmitter"])),
            reliability=rel)
    elif shape == "broadcast":
        n = draw(st.integers(min_value=2, max_value=4))
        graphs = enumerate_connected_graphs(n)
        instance, cost_fns = broadcast_instance(
            n, graphs[draw(st.integers(min_value=0, max_value=len(graphs) - 1))],
            reliability=rel)
    elif shape == "graph":
        instance, cost_fns, _ = draw(open_loop_cases())
    else:
        instance = draw(explicit_instances())
        cost_fns = {pair: CostFunction.power(1.5) for pair in instance.dest_pairs()}
    if draw(st.booleans()):
        # every kind of cost, exponential ones capped low enough to bind
        cost_fns = {pair: draw(st.sampled_from([
            CostFunction.linear(1.5), CostFunction.power(2.0), CostFunction.power(0.5),
            CostFunction.exponential(cap=60.0), CostFunction.indicator(3)]))
            for pair in cost_fns}

    is_star = sim.star_structure(instance) is not None
    small = len(instance.tracked_pairs()) <= 3
    policy = draw(st.sampled_from(["age-debt", "age-debt", "randomized", "constant"]
                                  + ["max-weight"] * is_star + ["dp-table"] * small))
    params = {}
    if policy == "age-debt":
        params = {"variant": draw(st.sampled_from(["auto", "exact"]))}
    elif policy == "randomized":
        n_actions = len(instance.action_space)
        params = {"probabilities": tuple([1.0 / n_actions] * n_actions)}
    elif policy == "constant":
        params = {"action_index": draw(st.integers(0, len(instance.action_space) - 1))}
    elif policy == "dp-table":
        params = {"solution": dp_optimal(instance, cost_fns, a_cap=4, tolerance=1e-3)}

    mode = draw(st.sampled_from(sim.TARGET_MODES))
    kw = {}
    if mode == "fixed":
        kw["targets"] = draw(st.one_of(
            st.floats(min_value=0.0, max_value=8.0),
            st.fixed_dictionaries({pair: st.sampled_from([0.0, 1.5, 4.0])
                                   for pair in instance.dest_pairs()})))
    elif mode == "flow-control":
        kw["flow_control"] = FlowControlConfig(
            V=draw(st.sampled_from([0.5, 3.0, 10.0])),
            alpha_max=draw(st.sampled_from([1, 6.0, 40])))
    else:
        kw["gradient_descent"] = GradientDescentConfig(
            epoch_length=draw(st.integers(min_value=3, max_value=40)),
            step=draw(st.sampled_from([0.25, 1.0])), threshold=0.05,
            initial=draw(st.sampled_from([1.0, 4.0])))
    cfg = SimConfig(horizon=draw(st.integers(min_value=1, max_value=200)),
                    seed=draw(st.integers(min_value=0, max_value=2 ** 20)),
                    policy=policy, policy_params=params, target_mode=mode,
                    tie_break=draw(st.sampled_from(["first", "last", "random", "freshest"])),
                    use_intermediate_queues=draw(st.booleans()),
                    trace_detail=draw(st.sampled_from(["metrics-only", "full"])), **kw)
    return instance, cost_fns, cfg


@given(closed_loop_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_run_matches_dict_reference_loop(case, plain):
    instance, cost_fns, cfg = case
    if plain:
        cost_fns = as_plain(cost_fns)
    a = run(instance, cost_fns, cfg)
    b = dict_slot_loop(instance, cost_fns, cfg)
    for f in fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


def test_run_matches_dict_reference_past_table_growth():
    # ages far beyond the first table sizes, on a slow star and a long line
    star, star_costs = gen_star(6, rng=np.random.default_rng(3), cost_rule="functions-of-age")
    line, line_costs = gen_line(6, interference="single-transmitter", reliability=0.6)
    line_costs = {pair: CostFunction.power(1.5) for pair in line_costs}
    for instance, cost_fns, cfg in (
            (star, star_costs, SimConfig(horizon=3000, seed=1, targets=500.0)),
            (line, line_costs, SimConfig(horizon=3000, seed=2, target_mode="flow-control",
                                         flow_control=FlowControlConfig(V=5.0, alpha_max=30.0)))):
        a = run(instance, cost_fns, cfg)
        b = dict_slot_loop(instance, cost_fns, cfg)
        for f in fields(a):
            assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


# ---------------- the generated slot loop, shape by shape ----------------

def _shape_instance(name):
    if name == "star":
        return gen_star(4, rng=np.random.default_rng(7))
    if name == "one-source-star":
        return gen_star(2, rng=np.random.default_rng(7))
    instance, _ = gen_line(4, interference="single-transmitter", reliability=0.8)
    if name == "two-hop":
        instance, _ = gen_line(3, interference="single-transmitter", reliability=0.8)
    return instance, {pair: CostFunction.power(1.5) for pair in instance.dest_pairs()}


# policy entry -> (instance, run fields, the loop's policy kind, relay queues kept)
SHAPE_POLICIES = {
    "closed-form": ("star", {"policy": "age-debt"}, "star", False),
    "closed-form-one-source": ("one-source-star", {"policy": "age-debt"}, "star", False),
    "max-weight": ("star", {"policy": "max-weight"}, "max-weight", False),
    "dp-table": ("two-hop", {"policy": "dp-table"}, "dp-table", False),
    "dp-table-star": ("star", {"policy": "dp-table"}, "dp-table", False),
    "exact-relays-kept": ("line", {"policy": "age-debt"}, "exact", True),
    "exact-relays-off": ("line", {"policy": "age-debt", "use_intermediate_queues": False,
                                  "tie_break": "random"}, "exact", False),
    "randomized": ("line", {"policy": "randomized"}, "pick", False),
    "randomized-star": ("star", {"policy": "randomized"}, "pick", False),
    "constant": ("line", {"policy": "constant", "policy_params": {"action_index": 2}},
                 "pick", False),
}
SHAPE_MODES = {
    "fixed": {"targets": 3.0},
    "flow-control": {"flow_control": FlowControlConfig(V=3.0, alpha_max=6.0)},
    "gradient-descent": {"gradient_descent": GradientDescentConfig(
        epoch_length=25, step=0.5, threshold=0.05, initial=4.0)},
}


def _shape_case(policy, mode, trace_detail, horizon=300):
    name, kw, kind, keep = SHAPE_POLICIES[policy]
    instance, cost_fns = _shape_instance(name)
    kw = dict(kw)
    if kw["policy"] == "dp-table":
        kw["policy_params"] = {"solution": dp_optimal(instance, cost_fns, a_cap=4)}
    elif kw["policy"] == "randomized":
        n = len(instance.action_space)
        kw["policy_params"] = {"probabilities": tuple([1.0 / n] * n)}
    cfg = SimConfig(horizon=horizon, seed=3, target_mode=mode, trace_detail=trace_detail,
                    **kw, **SHAPE_MODES[mode])
    return instance, cost_fns, cfg, (kind, mode, keep, trace_detail == "full")


@pytest.mark.parametrize("trace_detail", ["metrics-only", "full"])
@pytest.mark.parametrize("mode", list(SHAPE_MODES))
@pytest.mark.parametrize("policy", list(SHAPE_POLICIES))
def test_every_loop_shape_matches_dict_reference(policy, mode, trace_detail):
    # one run of every shape the generator writes; the hypothesis test above
    # reaches them only as it draws
    instance, cost_fns, cfg, shape = _shape_case(policy, mode, trace_detail)
    a = sim._slot_loop(instance, cost_fns, cfg)
    assert list(instance._slot_loops) == [shape]
    b = dict_slot_loop(instance, cost_fns, cfg)
    for f in fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


@pytest.mark.parametrize("policy", ["closed-form", "max-weight", "dp-table", "exact-relays-kept"])
def test_loop_matches_dict_reference_across_a_block_boundary(policy):
    # past slot 4096, the first channel block, and many table growth steps
    instance, cost_fns, cfg, _ = _shape_case(policy, "flow-control", "metrics-only", 4200)
    a = run(instance, cost_fns, cfg)
    b = dict_slot_loop(instance, cost_fns, cfg)
    for f in fields(a):
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


def test_loop_compiles_once_per_shape_and_again_after_unpickling(monkeypatch):
    # sweep workers unpickle a fresh instance per task, and functions do not
    # pickle: a copy writes and compiles its own loop
    import pickle

    written = []
    source = sim._loop_source

    def counting(*args):
        written.append(args[1:])
        return source(*args)

    monkeypatch.setattr(sim, "_loop_source", counting)
    instance, cost_fns, cfg, shape = _shape_case("exact-relays-kept", "flow-control",
                                                 "metrics-only")
    first = run(instance, cost_fns, cfg)
    assert repr(run(instance, cost_fns, cfg)) == repr(first)
    assert written == [shape]
    copy = pickle.loads(pickle.dumps(instance))
    assert copy._slot_loops == {} and list(instance._slot_loops) == [shape]
    assert repr(run(copy, cost_fns, cfg)) == repr(first)
    assert written == [shape, shape]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("mode", list(SHAPE_MODES))
@pytest.mark.parametrize("kind", ["star", "max-weight", "dp-table", "pick"])
@pytest.mark.parametrize("name", ["star", "one-source-star"])
def test_star_loops_keep_ages_in_locals(name, kind, mode, full):
    # a star loop reads each row's age from ``age`` once, before its slots,
    # and writes no held flag (a star has no relay queues to keep)
    instance, _ = _shape_instance(name)
    body = sim._loop_source(instance, kind, mode, False, full).partition("\n    for t, ")[2]
    assert body and "age[" not in body and "held[" not in body


# the exact-drift loop texts of a parity line, a single-transmitter line and
# a broadcast, hashed over all 12 shapes: a changed hash means exact-drift
# runs execute loop code that the golden data has not yet vouched for
EXACT_LOOP_HASHES = {
    "line-5": "eaa0641d91a0f5edf4039e7801cc2b493be82c5f05d7219081b8d7e4b3664ed4",
    "line-8-single-transmitter":
        "6ccd94d01be98bdc86c5fe0c4327703048d496656e89cfb1ff20c297967c5b9f",
    "broadcast-5-graph-10": "079bb12eaa5d1126c94d64477a7456cd6932e313f8f960c8dab6b24ec3363872",
}


@pytest.mark.parametrize("name", list(EXACT_LOOP_HASHES))
def test_exact_loop_text_is_pinned(name):
    import hashlib

    instance = {"line-5": lambda: gen_line(5),
                "line-8-single-transmitter": lambda: gen_line(8, "single-transmitter"),
                "broadcast-5-graph-10": lambda: broadcast_instance(
                    5, enumerate_connected_graphs(5)[10])}[name]()[0]
    digest = hashlib.sha256()
    for mode in sim.TARGET_MODES:
        for keep in (False, True):
            for full in (False, True):
                digest.update(sim._loop_source(instance, "exact", mode, keep, full).encode())
    assert digest.hexdigest() == EXACT_LOOP_HASHES[name]
