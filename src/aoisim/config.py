"""Experiment configuration: parsing.

Configs are JSON with six sections. ``network`` is either inline
(nodes + "i-j:p" edge strings) or a generator reference (star / line /
graph-enum, with an optional ``sizes`` list that a sweep expands). ``flows``,
``interference`` and ``costs`` apply to inline networks (generators bring
their own, and ``sweep.expand_scenarios`` rejects a key or section that the
network's form does not read). ``policies`` lists the policies to run, each with its target
mode; ``sim`` sets horizon, seeds and trace detail.

parse_config checks only the config's shape, from one table per section
that maps each key to its JSON type: syntax errors carry line/column anchors
from the JSON decoder, shape errors (not an object, a missing required key,
an unknown key, a wrong JSON type) carry the offending key path. Every rule
about a value has one owner that builds with it: ``sweep.expand_scenarios``
and the network, flow and cost constructors for the scenarios,
``sweep.check_policies`` for the policy entries.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass


class _Object(dict):
    """An object's table, key -> spec; the ``required`` keys must be present."""

    def __init__(self, table, required=()):
        super().__init__(table)
        self.required = required


# A spec is a JSON type name, [spec] for an array of such items, an _Object
# table, {str: spec} for an object of any keys, or a tuple of specs with
# distinct outer types (any one of them).
_COST = _Object({"kind": "string", "weight": "number", "exponent": "number",
                 "threshold": "integer", "cap": "number"}, required=("kind",))
_PAIR_VALUES = ("number", {str: "number"})  # one value, or one per "k-j" pair
_POLICY = _Object({
    "name": "string", "label": "string", "variant": "string", "tie_break": "string",
    "target_mode": "string", "targets": _PAIR_VALUES, "V": "number", "alpha_max": "number",
    "epoch_length": "integer", "step": "number", "threshold": "number",
    "initial": _PAIR_VALUES, "floor": _PAIR_VALUES, "a_cap": "integer", "tolerance": "number",
    "probabilities": ["number"], "budget": "integer", "tuning_horizon": "integer",
    "tuning_seed": "integer", "action_index": "integer", "use_intermediate_queues": "boolean",
}, required=("name",))
_NETWORK = {"nodes": "integer", "edges": ["string"], "generator": "string", "n": "integer",
            "sizes": ["integer"], "reliability": "string", "generator_seed": "integer",
            "weight_rule": "string", "cost_rule": "string", "interference": "string",
            "graph_ids": ["integer"]}
_SECTIONS = {
    "flows": ("string", [_Object({"source": "integer", "destinations": ["integer"]},
                                 required=("source", "destinations"))]),
    "interference": _Object({"model": "string", "eligibility": "string",
                             "actions": [[["integer"]]]}),
    "costs": _Object({"default": _COST, "per_pair": {str: _COST}, "cap": "number"}),
    "policies": [_POLICY],
    "sim": _Object({"horizon": "integer", "seeds": ["integer"], "trace_detail": "string"},
                   required=("horizon", "seeds")),
    "out": "string",
}
_INLINE = _Object(dict(_SECTIONS, network=_Object(_NETWORK, required=("nodes", "edges"))),
                  required=("network", "flows", "costs", "policies", "sim"))
_GENERATED = _Object(dict(_SECTIONS, network=_Object(_NETWORK)),
                     required=("network", "policies", "sim"))

_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def is_int(x):
    """The library's integer rule, for every owner of an integer argument:
    any ``numbers.Integral`` (numpy's integers too) but a bool. A config's
    integer keys pass it, as their JSON type is checked first."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class ExperimentConfig:
    network: dict
    policies: list
    sim: dict
    flows: object = None          # list of flow dicts or "all-broadcast"
    interference: dict = None
    costs: dict = None
    out: str = None


def _kind(spec):
    """The JSON type a value needs to match ``spec`` at its outer level."""
    return "array" if isinstance(spec, list) else "object" if isinstance(spec, dict) else spec


def _check(value, spec, path, errors):
    """Append one error per way ``value`` misses ``spec``, each with its key path."""
    alternatives = spec if isinstance(spec, tuple) else (spec,)
    got = _JSON_TYPES[type(value)]
    spec = next((s for s in alternatives
                 if _kind(s) == got or (_kind(s), got) == ("number", "integer")), None)
    where = path or "top level"
    if spec is None:
        want = " or ".join(_kind(s) for s in alternatives)
        errors.append(f"{where}: expected {want}, got {got}")
    elif isinstance(spec, list):
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]", errors)
    elif isinstance(spec, _Object):
        errors.extend(f"{where}: missing required key {key!r}"
                      for key in spec.required if key not in value)
        for key, item in value.items():
            if key in spec:
                _check(item, spec[key], f"{path}.{key}" if path else key, errors)
            else:
                errors.append(f"{where}: unknown key {key!r}")
    elif isinstance(spec, dict):
        for key, item in value.items():
            _check(item, spec[str], f"{path}[{key!r}]", errors)


def _not_a_number(name):
    """Reject the NaN, Infinity and -Infinity that ``json.loads`` reads."""
    raise ValueError(f"{name} is not a JSON number")


def parse_config(text):
    """Parse a JSON experiment config and check its shape.

    Returns (ExperimentConfig or None, list of error strings).
    """
    try:
        raw = json.loads(text, parse_constant=_not_a_number)
    except json.JSONDecodeError as exc:
        return None, [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
    except ValueError as exc:
        return None, [str(exc)]
    net = raw.get("network") if isinstance(raw, dict) else None
    errors = []
    _check(raw, _INLINE if isinstance(net, dict) and "generator" not in net else _GENERATED,
           "", errors)
    if errors:
        return None, errors
    return ExperimentConfig(**raw), []


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
