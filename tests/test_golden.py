"""Golden trajectories: exact action sequences and per-pair costs.

The age-debt argmin breaks ties on exact float equality, so any change to
how drift is summed can silently change which action wins. These runs were
recorded from the per-action drift loop that the one-pass evaluator
replaced, and every later engine must reproduce them bit for bit.

Record the data again only for a deliberate change of trajectories:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
from dataclasses import replace

import pytest

from aoisim import (CostFunction, FlowControlConfig, SimConfig, broadcast_instance,
                    enumerate_connected_graphs, gen_line, make_instance, run)

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_trajectories.json")


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
    return cases


CASES = _cases()


def trajectory(name):
    build, cfg = CASES[name]
    instance, cost_fns = build()
    m = run(instance, cost_fns, replace(cfg, trace_detail="full"))
    actions = [row[6] for row in m.trace[::len(m.per_pair_cost)]]
    return {
        "actions": actions,
        "per_pair_cost": {f"{k}-{j}": repr(v) for (k, j), v in m.per_pair_cost.items()},
        "per_pair_debt_rate": {f"{k}-{j}": repr(v)
                               for (k, j), v in m.per_pair_debt_rate.items()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectory(golden, name):
    assert trajectory(name) == golden[name]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump({name: trajectory(name) for name in sorted(CASES)}, fh, indent=1)
        fh.write("\n")
