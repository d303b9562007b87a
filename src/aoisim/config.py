"""Experiment configuration: parsing, validation, serialization.

Configs are JSON with six sections. ``network`` is either inline
(nodes + "i-j:p" edge strings) or a generator reference (star / line /
graph-enum, with an optional ``sizes`` list that a sweep expands). ``flows``,
``interference`` and ``costs`` apply to inline networks (generators bring
their own). ``policies`` lists the policies to run, each with its target
mode; ``sim`` sets horizon, seeds and trace detail.

parse_config returns (config, errors): syntax errors carry line/column
anchors from the JSON decoder, semantic errors carry the offending key path.
Serialization is canonical, so parse(serialize(cfg)) == cfg.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .network import INTERFERENCE_MODELS
from .policies import TIE_BREAKS
from .sim import AGE_DEBT_VARIANTS, POLICIES, TARGET_MODES

_COST_KINDS = ("linear", "power", "exponential", "indicator")
_GENERATORS = ("star", "line", "graph-enum")

_NETWORK_KEYS = {"nodes", "edges", "generator", "n", "sizes", "reliability",
                 "generator_seed", "weight_rule", "cost_rule", "interference",
                 "graph_ids"}
_POLICY_KEYS = {"name", "label", "variant", "tie_break", "target_mode",
                "targets", "V", "alpha_max", "epoch_length", "epochs", "step",
                "threshold", "initial", "floor", "a_cap", "tolerance",
                "probabilities", "budget", "tuning_horizon", "tuning_seed",
                "action_index", "use_intermediate_queues"}
_SIM_KEYS = {"horizon", "seeds", "trace_detail", "use_intermediate_queues"}
_COST_SECTION_KEYS = {"default", "per_pair", "cap"}
_COST_KEYS = {"kind", "weight", "exponent", "threshold", "cap"}


@dataclass
class ExperimentConfig:
    network: dict
    policies: list
    sim: dict
    flows: object = None          # list of flow dicts or "all-broadcast"
    interference: dict = None
    costs: dict = None
    out: str = None

    def to_dict(self):
        d = {"network": self.network, "policies": self.policies, "sim": self.sim}
        if self.flows is not None:
            d["flows"] = self.flows
        if self.interference is not None:
            d["interference"] = self.interference
        if self.costs is not None:
            d["costs"] = self.costs
        if self.out is not None:
            d["out"] = self.out
        return d


def serialize_config(config):
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def parse_edge(text):
    """'i-j' or 'i-j:p' -> ((i, j), p)."""
    body, _, prob = text.partition(":")
    i, _, j = body.partition("-")
    e = (int(i), int(j))
    return (e, float(prob) if prob else 1.0)


def parse_pair(text):
    """'k-j' -> (k, j)."""
    k, _, j = text.partition("-")
    return (int(k), int(j))


def _check_keys(section, allowed, path, errors):
    for key in section:
        if key not in allowed:
            errors.append(f"{path}: unknown key {key!r}")


def _check_cost_spec(spec, path, errors):
    if not isinstance(spec, dict):
        errors.append(f"{path}: cost spec must be an object")
        return
    _check_keys(spec, _COST_KEYS, path, errors)
    kind = spec.get("kind")
    if kind not in _COST_KINDS:
        errors.append(f"{path}.kind: expected one of {_COST_KINDS}, got {kind!r}")


def _check_network(net, errors):
    if not isinstance(net, dict):
        errors.append("network: must be an object")
        return
    _check_keys(net, _NETWORK_KEYS, "network", errors)
    gen = net.get("generator")
    if gen is not None:
        if gen not in _GENERATORS:
            errors.append(f"network.generator: expected one of {_GENERATORS}, got {gen!r}")
        if "n" not in net and "sizes" not in net:
            errors.append("network: generator needs 'n' or 'sizes'")
        if "sizes" in net and (not isinstance(net["sizes"], list) or not net["sizes"]):
            errors.append("network.sizes: must be a non-empty list")
        return
    nodes = net.get("nodes")
    if not isinstance(nodes, int) or nodes < 2:
        errors.append("network.nodes: need an integer >= 2")
        return
    edges = net.get("edges")
    if not isinstance(edges, list) or not edges:
        errors.append("network.edges: need a non-empty list of 'i-j:p' strings")
        return
    for idx, e in enumerate(edges):
        try:
            (i, j), p = parse_edge(e)
        except (ValueError, TypeError):
            errors.append(f"network.edges[{idx}]: cannot parse {e!r}")
            continue
        if not (1 <= i <= nodes and 1 <= j <= nodes):
            errors.append(f"network.edges[{idx}]: node out of range in {e!r}")
        if i == j:
            errors.append(f"network.edges[{idx}]: self-loop in {e!r}")
        if not (0.0 < p <= 1.0):
            errors.append(f"network.edges[{idx}]: reliability out of range in {e!r}")


def _check_flows(flows, net, errors):
    if flows == "all-broadcast":
        return
    if not isinstance(flows, list) or not flows:
        errors.append("flows: need a non-empty list or 'all-broadcast'")
        return
    nodes = net.get("nodes")
    seen = set()
    for idx, f in enumerate(flows):
        if not isinstance(f, dict) or "source" not in f or "destinations" not in f:
            errors.append(f"flows[{idx}]: need source and destinations")
            continue
        _check_keys(f, {"source", "destinations"}, f"flows[{idx}]", errors)
        s = f["source"]
        ds = f["destinations"]
        if s in seen:
            errors.append(f"flows[{idx}]: duplicate source {s}")
        seen.add(s)
        if not isinstance(ds, list) or not ds:
            errors.append(f"flows[{idx}].destinations: need a non-empty list")
            continue
        if s in ds:
            errors.append(f"flows[{idx}]: source in destination set")
        if isinstance(nodes, int):
            for j in [s] + ds:
                if not (1 <= j <= nodes):
                    errors.append(f"flows[{idx}]: node {j} out of range")


def _check_policy(pol, idx, horizon, errors):
    path = f"policies[{idx}]"
    if not isinstance(pol, dict):
        errors.append(f"{path}: must be an object")
        return
    _check_keys(pol, _POLICY_KEYS, path, errors)
    name = pol.get("name")
    if name not in POLICIES:
        errors.append(f"{path}.name: expected one of {POLICIES}, got {name!r}")
        return
    mode = pol.get("target_mode", "fixed")
    modes = TARGET_MODES + ("oracle-dp",)  # solved once per policy, run as fixed targets
    if mode not in modes:
        errors.append(f"{path}.target_mode: expected one of {modes}, got {mode!r}")
    for key, default, ok in (("tie_break", "freshest", TIE_BREAKS),
                             ("variant", "auto", AGE_DEBT_VARIANTS)):
        if pol.get(key, default) not in ok:
            errors.append(f"{path}.{key}: expected one of {ok}, got {pol.get(key)!r}")
    if name == "age-debt":
        if mode == "fixed" and "targets" not in pol:
            errors.append(f"{path}: age-debt with fixed targets needs 'targets'")
        if mode == "flow-control":
            if not isinstance(pol.get("V"), (int, float)) or pol.get("V") <= 0:
                errors.append(f"{path}.V: flow-control needs V > 0")
            if not isinstance(pol.get("alpha_max"), (int, float)) or pol.get("alpha_max") < 1:
                errors.append(f"{path}.alpha_max: flow-control needs alpha_max >= 1")
        if mode == "gradient-descent":
            for key in ("epoch_length", "epochs", "step", "threshold", "initial"):
                if key not in pol:
                    errors.append(f"{path}.{key}: gradient-descent needs {key}")
            w, e = pol.get("epoch_length"), pol.get("epochs")
            if isinstance(w, int) and isinstance(e, int) and horizon is not None \
                    and w * e != horizon:
                errors.append(f"{path}: epochs * epoch_length must equal sim.horizon "
                              f"({e} * {w} != {horizon})")
    if name == "randomized":
        if "probabilities" not in pol and not pol.get("budget"):
            errors.append(f"{path}: randomized needs 'probabilities' or a tuning 'budget'")
    if name == "constant" and not isinstance(pol.get("action_index"), int):
        errors.append(f"{path}.action_index: constant policy needs an integer index")


def parse_config(text):
    """Parse and validate a JSON experiment config.

    Returns (ExperimentConfig or None, list of error strings).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    errors = []
    if not isinstance(raw, dict):
        return None, ["top level: must be a JSON object"]
    allowed = {"network", "flows", "interference", "costs", "policies", "sim", "out"}
    _check_keys(raw, allowed, "top level", errors)

    net = raw.get("network")
    if net is None:
        errors.append("network: section is required")
    else:
        _check_network(net, errors)

    inline = isinstance(net, dict) and "generator" not in net
    flows = raw.get("flows")
    if inline:
        if flows is None:
            errors.append("flows: required for inline networks")
        else:
            _check_flows(flows, net, errors)
        interference = raw.get("interference")
        if interference is not None:
            _check_keys(interference, {"model", "eligibility", "actions"},
                        "interference", errors)
            model = interference.get("model", "single-transmitter")
            if model not in INTERFERENCE_MODELS:
                errors.append(f"interference.model: expected one of "
                              f"{INTERFERENCE_MODELS}, got {model!r}")
            if model == "explicit" and "actions" not in interference:
                errors.append("interference: explicit model needs 'actions'")
        costs = raw.get("costs")
        if costs is None:
            errors.append("costs: required for inline networks")
        else:
            _check_keys(costs, _COST_SECTION_KEYS, "costs", errors)
            if "default" in costs:
                _check_cost_spec(costs["default"], "costs.default", errors)
            for key, spec in costs.get("per_pair", {}).items():
                try:
                    parse_pair(key)
                except (ValueError, TypeError):
                    errors.append(f"costs.per_pair: cannot parse pair key {key!r}")
                _check_cost_spec(spec, f"costs.per_pair[{key!r}]", errors)

    sim = raw.get("sim")
    horizon = None
    if not isinstance(sim, dict):
        errors.append("sim: section is required")
    else:
        _check_keys(sim, _SIM_KEYS, "sim", errors)
        horizon = sim.get("horizon")
        if not isinstance(horizon, int) or horizon < 1:
            errors.append("sim.horizon: need an integer >= 1")
        seeds = sim.get("seeds")
        if not isinstance(seeds, list) or not seeds or \
                not all(isinstance(s, int) for s in seeds):
            errors.append("sim.seeds: need a non-empty list of integers")
        if sim.get("trace_detail", "metrics-only") not in ("metrics-only", "full"):
            errors.append("sim.trace_detail: expected 'metrics-only' or 'full'")

    policies = raw.get("policies")
    if not isinstance(policies, list) or not policies:
        if policies != []:
            errors.append("policies: need a list")
        policies = policies or []
    for idx, pol in enumerate(policies):
        _check_policy(pol, idx, horizon, errors)

    if errors:
        return None, errors
    return ExperimentConfig(
        network=net, policies=policies, sim=sim, flows=flows,
        interference=raw.get("interference"), costs=raw.get("costs"),
        out=raw.get("out")), []


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
