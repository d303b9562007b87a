"""Golden trajectories and DP solutions, pinned bit for bit.

The age-debt argmin breaks ties on exact float equality, so any change to
how drift is summed can silently change which action wins. These runs were
recorded from the per-action drift loop that the one-pass evaluator
replaced, and every later engine must reproduce them bit for bit. The
randomized, constant, gradient-descent and closed-form star cases were
recorded from the engine that still worked out relay hop distances in every
slot and kept relay queues under every policy. The randomized broadcast and
diamond cases were recorded from the slot loop before open-loop runs got
their array path; every case is also checked metrics-only, which is the
mode that takes that path. The unreliable max-weight star, the ten-source
flow-control star and the two ``dp-table`` cases, and every case's
``max_sum_debt`` and ``final_targets``, were recorded from the slot loop on
dict state (kept as ``tests/dict_reference.py``) before the row-indexed
loop replaced it; the fields recorded earlier came out unchanged. The two
exact-drift diamond cases were recorded from the evaluator that built every
next-age distribution as a sorted tuple, before it scored blocks with at
most one link inline.

The connected-graph lists were recorded from the enumeration that tested
every edge mask on n nodes for connectivity before canonicalizing; the
enumeration by vertex augmentation that replaced it must return the same
lists in the same order.

The DP fingerprints were recorded from the solver that gathered one
state-sized flat index array per outcome, over the whole state space at
once. They pin every ``DpSolution`` field: the ``repr`` of the gain,
residual span and per-pair averages, the iteration count, and sha256
digests of the policy and relative-value bytes. The value-iteration sweeps
that run one slab of the leading state axis at a time must reproduce them,
and the span after every sweep, however the states are cut into slabs.

``PYTHONPATH=src python tests/test_golden.py`` records the cases missing
from the data files. If any existing entry would come out different, it
prints the differing names, writes nothing and exits 1. Record all golden
data again only for a deliberate change of results, with ``--rerecord``.
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import aoisim.dp
from aoisim import (CostFunction, FlowControlConfig, GradientDescentConfig, SimConfig,
                    broadcast_instance, dp_optimal, enumerate_connected_graphs, gen_line,
                    gen_star, make_instance, run)
from aoisim.age import row_plan
from conftest import diamond, diamond_direct

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_trajectories.json")
DP_DATA = os.path.join(os.path.dirname(__file__), "data", "golden_dp.json")
GRAPH_DATA = os.path.join(os.path.dirname(__file__), "data", "golden_graphs.json")


def _two_hop():
    instance = make_instance(3, {(1, 2): 1.0, (2, 3): 1.0}, [(1, {3})],
                             interference="single-transmitter", eligibility="path")
    return instance, {(1, 3): CostFunction.linear(1.0)}


def _broadcast(gid, reliability):
    return broadcast_instance(5, enumerate_connected_graphs(5)[gid], reliability=reliability)


def _cases():
    """name -> (instance builder, SimConfig)."""
    fc_broadcast = FlowControlConfig(V=10.0, alpha_max=40.0)
    fc_line = FlowControlConfig(V=10.0, alpha_max=32.0)
    cases = {}
    # graph 0 is a tree, graph 20 is K5
    for gid, rel in ((0, 0.8), (10, 1.0), (20, 0.8)):
        cases[f"broadcast-g{gid}-p{rel}"] = (
            lambda gid=gid, rel=rel: _broadcast(gid, rel),
            SimConfig(horizon=200, seed=3, target_mode="flow-control",
                      flow_control=fc_broadcast))
    for tb in ("first", "last", "random", "freshest"):
        cases[f"two-hop-{tb}"] = (_two_hop, SimConfig(
            horizon=300, seed=5, targets=2.5, tie_break=tb,
            policy_params={"variant": "exact"}))
    for n, inter in ((5, "parity"), (8, "single-transmitter")):
        for relay in (True, False):
            cases[f"line-n{n}-{inter}-relay{int(relay)}"] = (
                lambda n=n, inter=inter: gen_line(n, interference=inter),
                SimConfig(horizon=400, seed=7, target_mode="flow-control",
                          flow_control=fc_line, use_intermediate_queues=relay))
    # policies that never read relay queues, run with relay queues on
    line5 = lambda: gen_line(5, interference="parity")
    cases["line-n5-parity-randomized"] = (line5, SimConfig(
        horizon=400, seed=7, policy="randomized",
        policy_params={"probabilities": (0.2, 0.4, 0.4)}))
    cases["line-n5-parity-constant"] = (line5, SimConfig(
        horizon=400, seed=7, policy="constant", policy_params={"action_index": 1}))
    # every epoch boundary resets the destination and relay queues; on this
    # line the actions depend on the relay queues at each reset
    cases["line-n5-single-transmitter-gradient-descent"] = (
        lambda: gen_line(5, interference="single-transmitter"),
        SimConfig(horizon=400, seed=7, target_mode="gradient-descent",
                  gradient_descent=GradientDescentConfig(
                      epoch_length=50, epochs=8, step=0.5, threshold=0.05, initial=4.0)))
    cases["star-n5-closed-form-fixed"] = (
        lambda: gen_star(5, rng=np.random.default_rng(0)),
        SimConfig(horizon=400, seed=7, targets=1.5))
    # open-loop broadcast: on the tree (graph 0) destinations forward other
    # sources' packets over several hops; K5 (graph 20) delivers directly
    uniform21 = tuple([1.0 / 21] * 21)
    for gid in (0, 20):
        cases[f"broadcast-g{gid}-p0.8-randomized"] = (
            lambda gid=gid: _broadcast(gid, 0.8),
            SimConfig(horizon=400, seed=3, policy="randomized",
                      policy_params={"probabilities": uniform21}))
    # two relays deliver into the destination in the same slot
    cases["diamond-explicit-randomized"] = (diamond, SimConfig(
        horizon=400, seed=11, policy="randomized",
        policy_params={"probabilities": (0.1, 0.5, 0.4)}))
    # exact drift with two links into the destination in one action, often
    # from relays holding packets of the same age
    fc_diamond = FlowControlConfig(V=10.0, alpha_max=40.0)
    cases["diamond-explicit-age-debt"] = (diamond, SimConfig(
        horizon=400, seed=11, target_mode="flow-control", flow_control=fc_diamond))
    cases["diamond-direct-explicit-age-debt-first"] = (diamond_direct, SimConfig(
        horizon=400, seed=11, target_mode="flow-control", flow_control=fc_diamond,
        tie_break="first"))
    # the star controllers on unreliable links, and flow control on ten sources
    cases["star-n5-uniform-max-weight"] = (
        lambda: gen_star(5, rng=np.random.default_rng(0)),
        SimConfig(horizon=400, seed=7, policy="max-weight"))
    cases["star-n10-closed-form-flow-control"] = (
        lambda: gen_star(10, rng=np.random.default_rng(np.random.SeedSequence((0, 10)))),
        SimConfig(horizon=600, seed=7, target_mode="flow-control",
                  flow_control=FlowControlConfig(V=10.0, alpha_max=50.0)))
    # DP tables read every tracked age, clipped at a_cap; the line also
    # tracks relay ages
    cases["star-n4-uniform-functions-of-age-dp-table"] = (
        lambda: gen_star(4, rng=np.random.default_rng(0), cost_rule="functions-of-age"),
        SimConfig(horizon=400, seed=7, policy="dp-table", policy_params={"a_cap": 8}))
    cases["line-n4-parity-dp-table"] = (
        lambda: gen_line(4, interference="parity"),
        SimConfig(horizon=400, seed=7, policy="dp-table", policy_params={"a_cap": 8}))
    return cases


CASES = _cases()


def build_case(name):
    """The case's instance, cost functions and config; a ``dp-table`` case
    names its ``a_cap`` and gets the solution of its instance."""
    build, cfg = CASES[name]
    instance, cost_fns = build()
    if cfg.policy == "dp-table":
        sol = dp_optimal(instance, cost_fns, a_cap=cfg.policy_params["a_cap"], tolerance=1e-6)
        cfg = replace(cfg, policy_params={"solution": sol})
    return instance, cost_fns, cfg


def _pair_reprs(values):
    return {f"{k}-{j}": repr(v) for (k, j), v in values.items()}


def trajectory(name):
    instance, cost_fns, cfg = build_case(name)
    m = run(instance, cost_fns, replace(cfg, trace_detail="full"))
    actions = [row[6] for row in m.trace[::len(m.per_pair_cost)]]
    out = {
        "actions": actions,
        "per_pair_cost": _pair_reprs(m.per_pair_cost),
        "per_pair_debt_rate": _pair_reprs(m.per_pair_debt_rate),
        "max_sum_debt": repr(m.max_sum_debt),
        "final_targets": _pair_reprs(m.final_targets),
    }
    if m.target_history is not None:
        out["target_history"] = [{f"{k}-{j}": repr(v) for (k, j), v in tg.items()}
                                 for tg in m.target_history]
    return out


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectory(golden, name):
    assert trajectory(name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics_only(golden, name):
    # open-loop runs recorded in full-trace mode skip the slot loop when
    # run metrics-only; every run must report the same bits either way
    instance, cost_fns, cfg = build_case(name)
    m = run(instance, cost_fns, replace(cfg, trace_detail="metrics-only"))
    for field in ("per_pair_cost", "per_pair_debt_rate", "final_targets"):
        assert _pair_reprs(getattr(m, field)) == golden[name][field], field
    assert repr(m.max_sum_debt) == golden[name]["max_sum_debt"]


def _dp_cases():
    """name -> (instance builder, dp_optimal keyword arguments)."""
    cases = {}
    for n in (4, 5):  # 3 and 4 sources
        for rel in ("reliable", "uniform"):
            for cost in ("weighted-linear", "functions-of-age"):
                cases[f"star-n{n}-{rel}-{cost}"] = (
                    lambda n=n, rel=rel, cost=cost: gen_star(
                        n, reliability_rule=rel, rng=np.random.default_rng(0),
                        cost_rule=cost),
                    {"a_cap": 12, "tolerance": 1e-4})
    cases["two-hop"] = (_two_hop, {"a_cap": 12, "tolerance": 1e-6})
    for inter in ("parity", "single-transmitter"):
        cases[f"line-n4-{inter}"] = (lambda inter=inter: gen_line(4, inter),
                                     {"a_cap": 12, "tolerance": 1e-6})
    cases["broadcast3-g0-p0.8"] = (
        lambda: broadcast_instance(3, enumerate_connected_graphs(3)[0], reliability=0.8),
        {"a_cap": 6, "tolerance": 1e-4})
    return cases


DP_CASES = _dp_cases()


def dp_fingerprint(name):
    build, params = DP_CASES[name]
    return _fingerprint(dp_optimal(*build(), **params))


def _fingerprint(sol):
    return {
        "gain": repr(sol.gain),
        "residual_span": repr(sol.residual_span),
        "iterations": sol.iterations,
        "per_pair_average": {f"{k}-{j}": repr(v)
                             for (k, j), v in sol.per_pair_average.items()},
        "policy_sha256": hashlib.sha256(sol.policy.tobytes()).hexdigest(),
        "relative_values_sha256": hashlib.sha256(sol.relative_values.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden_dp():
    with open(DP_DATA) as fh:
        return json.load(fh)


def test_golden_dp_covers_every_case(golden_dp):
    assert sorted(golden_dp) == sorted(DP_CASES)


@pytest.mark.parametrize("name", sorted(DP_CASES))
def test_golden_dp_solution(golden_dp, name):
    assert dp_fingerprint(name) == golden_dp[name]


@pytest.mark.parametrize("name", sorted(DP_CASES))
def test_golden_dp_solution_in_slabs(golden_dp, name, monkeypatch):
    # every case fits in one sweep slab; cut it into one leading-axis index
    # per slab, then into slabs of 5 that leave a short last one
    build, params = DP_CASES[name]
    instance, cost_fns = build()
    whole = dp_optimal(instance, cost_fns, **params)
    row_states = params["a_cap"] ** (row_plan(instance).n_rows - 1)
    for rows in (1, 5):
        monkeypatch.setattr(aoisim.dp, "_SLAB_STATES", rows * row_states)
        sol = dp_optimal(instance, cost_fns, **params)
        assert _fingerprint(sol) == golden_dp[name], rows
        assert sol.span_history == whole.span_history, rows


GRAPH_SIZES = [str(n) for n in range(2, 7)]


def graph_classes(size):
    return [[list(e) for e in graph] for graph in enumerate_connected_graphs(int(size))]


def test_golden_graphs():
    with open(GRAPH_DATA) as fh:
        golden_graphs = json.load(fh)
    assert sorted(golden_graphs) == GRAPH_SIZES
    for size in GRAPH_SIZES:
        assert graph_classes(size) == golden_graphs[size], size


def record_missing(rerecord=False):
    """Record the golden cases missing from the data files and return the
    names of existing entries that the checked-out code would change.
    Nothing is written while any entry would change, unless ``rerecord``
    asks for every file to be written again from the checked-out code."""
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    out, changed = {}, []
    for path, cases, record in ((DATA, CASES, trajectory), (DP_DATA, DP_CASES, dp_fingerprint),
                                (GRAPH_DATA, GRAPH_SIZES, graph_classes)):
        old = {}
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)
        new = {name: record(name) for name in sorted(cases)}
        changed += [f"{os.path.basename(path)}: {name}" for name in sorted(new)
                    if name in old and old[name] != new[name]]
        if rerecord or new.keys() != old.keys():
            out[path] = new
    if changed and not rerecord:
        return changed
    for path, data in out.items():
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return changed


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="Record missing golden cases.")
    parser.add_argument("--rerecord", action="store_true",
                        help="write every golden entry again from the checked-out code")
    args = parser.parse_args()
    changed = record_missing(args.rerecord)
    if changed:
        print("\n".join(changed))
    if changed and not args.rerecord:
        print(f"{len(changed)} golden entries would change; nothing written "
              "(--rerecord writes them)", file=sys.stderr)
        sys.exit(1)
