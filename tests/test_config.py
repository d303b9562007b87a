import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisim import parse_config
from aoisim.config import _GENERATED, _INLINE, _Object
from aoisim.sweep import build_sim_config, check_policies, expand_scenarios


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


def scenario_error(**overrides):
    """The message of the ValueError that expand_scenarios raises on a config
    that parses."""
    config, errors = parse_config(cfg_text(**overrides))
    assert errors == []
    with pytest.raises(ValueError) as exc:
        expand_scenarios(config)
    return str(exc.value)


def test_unknown_node_in_flow():
    # a node out of range is a value rule: make_instance owns it
    assert scenario_error(flows=[{"source": 1, "destinations": [7]}]) == \
        "network: invalid instance: flow 1: destination 7 is not a node"


def test_unknown_keys_rejected():
    config, errors = parse_config(cfg_text(nonsense={"a": 1}))
    assert any("unknown key" in e for e in errors)
    d = dict(MINIMAL)
    d["sim"] = {"horizon": 100, "seeds": [0], "typo_key": 1}
    config, errors = parse_config(json.dumps(d))
    assert any("typo_key" in e for e in errors)


def test_shape_errors_carry_key_paths():
    # parse_config reports keys and JSON types only, each with its path
    d = {**MINIMAL, "sim": {"horizon": True, "seeds": [0, 1.5]},
         "flows": [{"source": 1}], "costs": {"per_pair": {"1-2": {"kind": 3}}},
         "policies": [{"name": "age-debt", "targets": "2", "use_intermediate_queues": 1}]}
    del d["network"]
    config, errors = parse_config(json.dumps(d))
    assert config is None
    assert errors == [
        "top level: missing required key 'network'",
        "flows[0]: missing required key 'destinations'",
        "costs.per_pair['1-2'].kind: expected string, got integer",
        "policies[0].targets: expected number or object, got string",
        "policies[0].use_intermediate_queues: expected boolean, got integer",
        "sim.horizon: expected integer, got boolean",
        "sim.seeds[1]: expected integer, got number",
    ]
    _, errors = parse_config("[]")
    assert errors == ["top level: expected object, got array"]
    # a generator network needs none of the inline sections
    _, errors = parse_config(json.dumps({"network": {"generator": "line", "n": 3},
                                         "policies": [], "sim": {"horizon": 1, "seeds": [0]}}))
    assert errors == []
    _, errors = parse_config(json.dumps({"network": {"nodes": 2}, "policies": [],
                                         "sim": {"horizon": 1, "seeds": [0]}}))
    assert errors == ["top level: missing required key 'flows'",
                      "top level: missing required key 'costs'",
                      "network: missing required key 'edges'"]


def test_section_rules_fail_in_expand_scenarios_or_the_policy_pass():
    assert scenario_error(costs={"per_pair": {"1-2": {"kind": "linear"},
                                              "01-2": {"kind": "linear"}}}) == \
        "costs.per_pair['01-2']: names pair 01-2 a second time"
    assert scenario_error(costs={"per_pair": {"x": {"kind": "linear"}}}).startswith(
        "costs.per_pair['x']: invalid literal")
    assert scenario_error(costs={"cap": -1.0}) == \
        "costs.default: cap must be positive and finite"
    # a cost spec sets only what its kind reads
    assert scenario_error(costs={"default": {"kind": "linear", "weight": 1.0, "exponent": 3.0,
                                             "threshold": 4}}) == \
        "costs.default: 'exponent', 'threshold' not read by cost kind 'linear'"
    assert scenario_error(costs={"per_pair": {"1-2": {"kind": "indicator", "weight": 2.0}}}) == \
        "costs.per_pair['1-2']: 'weight' not read by cost kind 'indicator'"
    assert scenario_error(flows="all") == "flows: expected a list or 'all-broadcast', got 'all'"
    gen = {"generator": "line", "sizes": []}
    assert scenario_error(network=gen) == \
        "network: a generator needs 'n' or a non-empty 'sizes'"
    assert policy_errors(sim={"horizon": 100, "seeds": []}) == [
        "sim.seeds: need at least one seed"]


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
         "alpha_max": 50}]) == ["policies[0]: V must be finite and > 0"]


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
           "epoch_length": 30, "step": 0.5, "threshold": 0.1, "initial": 5.0}
    assert policy_errors(policies=[pol]) == [
        "policies[0]: epoch_length must divide sim.horizon (100 % 30 != 0)"]
    assert policy_errors(policies=[dict(pol, epoch_length=20)]) == []
    assert policy_errors(policies=[dict(pol, epoch_length=100)]) == []
    # the horizon sets the epoch count, so no key names it
    _, errors = parse_config(cfg_text(policies=[dict(pol, epoch_length=20, epochs=5)]))
    assert errors == ["policies[0]: unknown key 'epochs'"]


def test_gd_entry_needs_initial_targets():
    # no starting target fits every instance, so none is assumed
    pol = {"name": "age-debt", "target_mode": "gradient-descent",
           "epoch_length": 20, "step": 0.5, "threshold": 0.1}
    assert policy_errors(policies=[pol]) == [
        "policies[0]: target_mode 'gradient-descent' needs 'initial'"]
    assert policy_errors(policies=[dict(pol, initial=5.0)]) == []


def test_repeated_policy_labels_get_their_index():
    from aoisim.sweep import policy_label
    seen = set()
    pols = [{"name": "max-weight"}, {"name": "max-weight"},
            {"name": "age-debt", "target_mode": "flow-control"},
            {"name": "constant", "label": "max-weight"}]
    assert [policy_label(p, i, seen) for i, p in enumerate(pols)] == \
        ["max-weight", "max-weight#1", "age-debt-flow-control", "max-weight#3"]


def test_bad_edge_strings():
    assert scenario_error(network={"nodes": 3, "edges": ["1+2"]}) == \
        "network.edges: cannot parse '1+2'"
    assert "reliability out of range" in scenario_error(
        network={"nodes": 3, "edges": ["1-2:1.5"]})


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
        "epoch_length": 20, "step": 0.5, "threshold": 0.1,
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


# the strings an owner knows for each key; every key also draws one it does not
WORDS = {
    "generator": ["star", "line", "graph-enum"], "reliability": ["uniform", "reliable"],
    "weight_rule": ["i-over-n", "unit"], "cost_rule": ["weighted-linear", "functions-of-age"],
    "interference": ["parity", "single-transmitter"], "eligibility": ["any", "path"],
    "model": ["single-transmitter", "matching", "parity", "explicit"],
    "edges": ["1-2", "2-3", "1-3:0.5", "2-1", "1-2:1.5", "2-2", "1-9", "1+2"],
    "flows": ["all-broadcast"], "kind": ["linear", "power", "exponential", "indicator"],
    "name": ["age-debt", "max-weight", "randomized", "constant", "dp-table"],
    "target_mode": ["fixed", "flow-control", "gradient-descent", "oracle-dp"],
    "variant": ["auto", "exact"], "tie_break": ["first", "freshest", "random"],
    "trace_detail": ["metrics-only", "full"],
}
PAIRS = ["1-2", "1-3", "2-1", "2-3", "01-2", "x"]


def json_values(spec, key=None):
    """Values of the JSON type that a config table gives ``key``, small
    enough that a validate stays quick."""
    if isinstance(spec, tuple):
        return st.one_of([json_values(s, key) for s in spec])
    if isinstance(spec, list):
        return st.lists(json_values(spec[0], key), max_size=3)
    if isinstance(spec, _Object):
        return st.fixed_dictionaries(
            {k: json_values(spec[k], k) for k in spec.required},
            optional={k: json_values(s, k) for k, s in spec.items() if k not in spec.required})
    if isinstance(spec, dict):
        return st.dictionaries(st.sampled_from(PAIRS), json_values(spec[str]), max_size=2)
    small = st.integers(-1, 5)
    return {"integer": small, "boolean": st.booleans(),
            "string": st.sampled_from(WORDS.get(key, []) + ["x"]),
            "number": st.one_of(small, st.floats(-1.0, 40.0))}[spec]


GENERATED = _Object(dict(_GENERATED, network=_Object(_GENERATED["network"],
                                                     required=("generator",))),
                    required=_GENERATED.required)
STAR = {"network": {"generator": "star", "n": 3}, "policies": [{"name": "max-weight"}],
        "sim": {"horizon": 100, "seeds": [0]}}


DRAWN = ((json_values(_INLINE), MINIMAL), (json_values(GENERATED), STAR))


@st.composite
def configs(draw):
    """A config drawn from a table, with some sections kept from a valid one
    so that the draws reach every owner."""
    drawn, base = draw(st.sampled_from(DRAWN))
    keep = draw(st.sets(st.sampled_from(sorted(base))))
    return {**draw(drawn), **{key: base[key] for key in keep}}


TUNED = {"name": "randomized", "budget": 2, "tuning_horizon": 5}


def test_tuner_settings_are_checked_before_any_work():
    # the tuner owns its budget and horizon rules; the sweep, which builds
    # the tuner's rng from it, owns the seed's
    for key, value, message in (
            ("budget", -3, "tuning budget must be an integer >= 1, got -3"),
            ("budget", 0, "tuning budget must be an integer >= 1, got 0"),
            ("tuning_horizon", 0, "tuning horizon must be an integer >= 1, got 0"),
            ("tuning_seed", -1, "tuning_seed must be an integer >= 0, got -1")):
        assert policy_errors(policies=[dict(TUNED, **{key: value})]) == \
            [f"policies[0]: {message}"]
    assert policy_errors(policies=[TUNED]) == []
    assert policy_errors(policies=[{"name": "randomized"}]) == \
        ["policies[0]: randomized needs 'probabilities' or a tuning 'budget'"]


@given(raw=configs())
@example(raw={**STAR, "policies": [dict(TUNED, tuning_horizon=0)]})
@example(raw={**STAR, "policies": [dict(TUNED, tuning_seed=-1)]})
@example(raw={**STAR, "policies": [dict(TUNED, budget=-3)]})
@settings(max_examples=300, deadline=None)
def test_every_value_rule_fails_as_a_value_error(raw):
    # a config of the right JSON types parses; each value rule's owner then
    # reports a problem as a ValueError, never as a TypeError, KeyError or
    # AttributeError from deeper in the code, and before any work: an entry
    # that check_policies accepts builds on every scenario, tuner and DP
    # solve included
    config, errors = parse_config(json.dumps(raw))
    assert errors == []
    try:
        scenarios = expand_scenarios(config)
        check_policies(config, scenarios)
    except ValueError:
        return
    sim = config.sim
    for scenario in scenarios:
        for pol in config.policies:
            build_sim_config(pol, scenario, sim["horizon"], sim["seeds"][0], sim)
