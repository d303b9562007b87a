import json

import pytest

from aoisim import parse_config, serialize_config
from aoisim.sweep import check_policies, expand_scenarios


MINIMAL = {
    "network": {"nodes": 2, "edges": ["1-2:1.0"]},
    "flows": [{"source": 1, "destinations": [2]}],
    "costs": {"default": {"kind": "linear", "weight": 1.0}},
    "policies": [{"name": "age-debt", "target_mode": "fixed", "targets": 2.0}],
    "sim": {"horizon": 100, "seeds": [0]},
}


def cfg_text(**overrides):
    d = {**MINIMAL, **overrides}
    return json.dumps(d)


def policy_errors(**overrides):
    """The policy check pass's errors on a config that parses."""
    config, errors = parse_config(cfg_text(**overrides))
    assert errors == []
    try:
        check_policies(config, expand_scenarios(config))
    except ValueError as exc:
        return str(exc).splitlines()
    return []


def test_minimal_config_valid():
    config, errors = parse_config(cfg_text())
    assert errors == []
    assert config.network["nodes"] == 2


def test_syntax_error_carries_line_anchor():
    config, errors = parse_config('{\n "network": [,]\n}')
    assert config is None
    assert errors and errors[0].startswith("line 2")


def test_unknown_node_in_flow():
    config, errors = parse_config(cfg_text(
        flows=[{"source": 1, "destinations": [7]}]))
    assert config is None
    assert any("out of range" in e for e in errors)


def test_unknown_keys_rejected():
    config, errors = parse_config(cfg_text(nonsense={"a": 1}))
    assert any("unknown key" in e for e in errors)
    d = dict(MINIMAL)
    d["sim"] = {"horizon": 100, "seeds": [0], "typo_key": 1}
    config, errors = parse_config(json.dumps(d))
    assert any("typo_key" in e for e in errors)


def test_max_weight_weights_key_rejected():
    _, errors = parse_config(cfg_text(policies=[{"name": "max-weight", "weights": {"1": 2.0}}]))
    assert any("unknown key 'weights'" in e for e in errors)


def test_policy_validation():
    # parse_config checks only an entry's shape; the pass checks the rest
    assert policy_errors(policies=[{"name": "nope"}]) == [
        "policies[0]: unknown policy 'nope'"]
    assert policy_errors(policies=[{"name": "age-debt"}]) == [
        "policies[0] on inline: age-debt with fixed targets needs 'targets'"]
    assert policy_errors(policies=[
        {"name": "age-debt", "target_mode": "flow-control", "V": -2,
         "alpha_max": 50}]) == ["policies[0]: V must be > 0"]


def test_unknown_age_debt_variant_rejected():
    # the same variants that the simulator accepts
    from aoisim.sim import AGE_DEBT_VARIANTS
    for variant in AGE_DEBT_VARIANTS:
        assert policy_errors(policies=[
            {"name": "age-debt", "variant": variant, "targets": 2.0}]) == []
    assert policy_errors(policies=[
        {"name": "age-debt", "variant": "exakt", "targets": 2.0}]) == [
        "policies[0]: unknown age-debt variant 'exakt'"]


def test_gd_epochs_must_partition_horizon():
    pol = {"name": "age-debt", "target_mode": "gradient-descent",
           "epoch_length": 30, "epochs": 4, "step": 0.5, "threshold": 0.1,
           "initial": 5.0}
    assert policy_errors(policies=[pol]) == [
        "policies[0]: epochs * epoch_length must equal sim.horizon (4 * 30 != 100)"]
    assert policy_errors(policies=[dict(pol, epochs=5, epoch_length=20)]) == []


def test_round_trip_identity():
    config, errors = parse_config(cfg_text())
    assert errors == []
    text = serialize_config(config)
    config2, errors2 = parse_config(text)
    assert errors2 == []
    assert config2 == config
    assert serialize_config(config2) == text


def test_bad_edge_strings():
    _, errors = parse_config(cfg_text(network={"nodes": 3, "edges": ["1+2"]}))
    assert any("cannot parse" in e for e in errors)
    _, errors = parse_config(cfg_text(network={"nodes": 3, "edges": ["1-2:1.5"]}))
    assert any("reliability out of range" in e for e in errors)


def test_empty_policy_list_allowed():
    config, errors = parse_config(cfg_text(policies=[]))
    assert errors == []
    assert config.policies == []


def test_star_generator_expansion_matches_gen_star():
    from aoisim import gen_star
    import numpy as np
    config, errors = parse_config(json.dumps({
        "network": {"generator": "star", "n": 6, "reliability": "uniform",
                    "generator_seed": 3},
        "policies": [{"name": "max-weight"}],
        "sim": {"horizon": 100, "seeds": [0]},
    }))
    assert errors == []
    scen = expand_scenarios(config)
    assert len(scen) == 1
    rng = np.random.default_rng(np.random.SeedSequence((3, 6)))
    ref, ref_costs = gen_star(6, rng=rng)
    assert scen[0].instance.reliability == ref.reliability
    assert scen[0].cost_fns == ref_costs


def test_generator_sizes_expand_to_scenarios():
    config, errors = parse_config(json.dumps({
        "network": {"generator": "line", "sizes": [3, 4, 5],
                    "interference": "parity"},
        "policies": [],
        "sim": {"horizon": 10, "seeds": [0]},
    }))
    assert errors == []
    scen = expand_scenarios(config)
    assert [s.scenario_id for s in scen] == [
        "line-n3-parity", "line-n4-parity", "line-n5-parity"]


def test_gd_policy_resolution_parses_pair_keys():
    from aoisim.sweep import build_sim_config
    config, errors = parse_config(cfg_text(policies=[{
        "name": "age-debt", "target_mode": "gradient-descent",
        "epoch_length": 20, "epochs": 5, "step": 0.5, "threshold": 0.1,
        "initial": {"1-2": 4.0}, "floor": {"1-2": 1.0}}]))
    assert errors == []
    scenario = expand_scenarios(config)[0]
    cfg = build_sim_config(config.policies[0], scenario, 100, 0, config.sim)
    assert cfg.gradient_descent.initial == {(1, 2): 4.0}
    assert cfg.gradient_descent.floor == {(1, 2): 1.0}


def test_oracle_dp_sweep_solves_once_per_policy(tmp_path, monkeypatch):
    import aoisim.dp
    from aoisim import SimConfig, run, stability_diagnostic
    from aoisim.sweep import run_sweep
    calls = []
    solve = aoisim.dp.dp_optimal

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(aoisim.dp, "dp_optimal", counting)
    config, errors = parse_config(json.dumps({
        "network": {"generator": "star", "n": 3, "reliability": "uniform"},
        "policies": [{"name": "age-debt", "target_mode": "oracle-dp", "a_cap": 10}],
        "sim": {"horizon": 300, "seeds": [0, 1, 2]},
    }))
    assert errors == []
    rows = run_sweep(config, str(tmp_path / "sweep.csv"))
    assert len(calls) == 1
    # every seed runs at the fixed targets of one solve
    scenario = expand_scenarios(config)[0]
    targets = solve(scenario.instance, scenario.cost_fns, a_cap=10,
                    tolerance=1e-3).per_pair_average
    for row, seed in zip(rows, (0, 1, 2)):
        m = run(scenario.instance, scenario.cost_fns, SimConfig(
            horizon=300, seed=seed, targets=dict(targets)))
        assert row["seed"] == seed
        assert row["sum_cost"] == m.sum_cost
        assert row["max_QT_over_T"] == max(m.per_pair_debt_rate.values())
        assert row["stability_violations"] == sum(
            1 for ok in stability_diagnostic(m).values() if not ok)


def test_graph_enum_scenarios():
    config, errors = parse_config(json.dumps({
        "network": {"generator": "graph-enum", "n": 4, "graph_ids": [0, 3]},
        "policies": [],
        "sim": {"horizon": 10, "seeds": [0]},
    }))
    assert errors == []
    scen = expand_scenarios(config)
    assert [s.graph_id for s in scen] == [0, 3]
    assert all(s.scenario_id == "graphs-n4" for s in scen)


def test_dp_table_with_oracle_dp_targets_solves_once(monkeypatch):
    import aoisim.dp
    from aoisim.sweep import build_sim_config
    calls = []
    solve = aoisim.dp.dp_optimal

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(aoisim.dp, "dp_optimal", counting)
    config, errors = parse_config(json.dumps({
        "network": {"generator": "star", "n": 3, "reliability": "uniform"},
        "policies": [{"name": "dp-table", "target_mode": "oracle-dp", "a_cap": 6},
                     {"name": "dp-table", "a_cap": 5, "tolerance": 1e-2}],
        "sim": {"horizon": 50, "seeds": [0]},
    }))
    assert errors == []
    scenario = expand_scenarios(config)[0]
    cfg = build_sim_config(config.policies[0], scenario, 50, 0, config.sim)
    # one solve gives both the table and the targets; unset keys keep
    # dp_optimal's own defaults
    assert calls == [{"a_cap": 6}]
    assert cfg.target_mode == "fixed"
    assert cfg.targets == cfg.policy_params["solution"].per_pair_average
    build_sim_config(config.policies[1], scenario, 50, 0, config.sim)
    assert calls[1:] == [{"a_cap": 5, "tolerance": 1e-2}]
