"""Scenario expansion, experiment execution, and CSV emission.

A sweep expands the config's network section into scenarios (one per star /
line size, one per enumerated graph, or the single inline network), runs
every configured policy for every seed, and writes one CSV row per
(scenario, policy, seed) plus mean / stderr aggregate rows per group.

Column layout is fixed: scenario_id, graph_id, policy, seed, T, sum_cost,
stability_violations, max_QT_over_T, wall_ms, then one cost_k_j column per
source-destination pair seen anywhere in the sweep. wall_ms is written as 0
unless timing is requested, so identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .config import is_int
from .costs import CostFunction
from .network import make_instance
from .dp import dp_state_count
from .policies import TUNING_HORIZON, _check_tuning, optimize_randomized
from .scenarios import broadcast_instance, enumerate_connected_graphs, gen_line, gen_star
from .sim import (SimConfig, _age_debt_variant, _policy, _resolve_targets, export_trace, run,
                  stability_diagnostic)
from .targets import FlowControlConfig, GradientDescentConfig

FIXED_COLUMNS = ("scenario_id", "graph_id", "policy", "seed", "T", "sum_cost",
                 "stability_violations", "max_QT_over_T", "wall_ms")


@dataclass
class Scenario:
    scenario_id: str
    graph_id: object          # enumeration index or ""
    instance: object
    cost_fns: dict


def parse_edge(text):
    """'i-j' or 'i-j:p' -> ((i, j), p)."""
    body, _, prob = text.partition(":")
    i, _, j = body.partition("-")
    return ((int(i), int(j)), float(prob) if prob else 1.0)


def parse_pair(text):
    """'k-j' -> (k, j)."""
    k, _, j = text.partition("-")
    return (int(k), int(j))


def _in_section(section, build, *args):
    """``build(*args)``, with a ``ValueError`` it raises prefixed by ``section``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def _inline_edges(edges):
    out = []
    for text in edges:
        try:
            out.append(parse_edge(text))
        except ValueError:
            raise ValueError(f"network.edges: cannot parse {text!r}") from None
    return out


def _inline_flows(flows, n):
    if flows == "all-broadcast":
        return [(s, set(range(1, n + 1)) - {s}) for s in range(1, n + 1)]
    if isinstance(flows, str):
        raise ValueError(f"flows: expected a list or 'all-broadcast', got {flows!r}")
    return [(f["source"], set(f["destinations"])) for f in flows]


def _inline_costs(section, dest_pairs):
    """Each destination pair's cost: its ``per_pair`` spec, else ``default``,
    with the section's ``cap`` where the spec sets none. A ``per_pair`` key
    must name a destination pair, and only once."""
    def cost(path, spec):
        if "cap" in section and "cap" not in spec:
            spec = dict(spec, cap=section["cap"])
        return _in_section(path, CostFunction.from_dict, spec)

    default = cost("costs.default", section.get("default", {"kind": "linear", "weight": 1.0}))
    out = dict.fromkeys(dest_pairs, default)
    named = set()
    for key, spec in section.get("per_pair", {}).items():
        path = f"costs.per_pair[{key!r}]"
        pair = _in_section(path, parse_pair, key)
        if pair in named:
            raise ValueError(f"{path}: names pair {key} a second time")
        if pair not in out:
            raise ValueError(f"{path}: names no destination pair")
        named.add(pair)
        out[pair] = cost(path, spec)
    return out


# the network keys each form reads; a generator brings its own flows,
# interference and costs
_READS = {
    None: ("nodes", "edges"),
    "star": ("generator", "n", "sizes", "reliability", "generator_seed", "weight_rule",
             "cost_rule"),
    "line": ("generator", "n", "sizes", "interference"),
    "graph-enum": ("generator", "n", "sizes", "graph_ids"),
}


def expand_scenarios(config):
    """Materialize the list of scenarios a config describes. A ``ValueError``
    from the owner of a rule reaches the caller prefixed by the config section
    at fault. Once the network's own rules pass, a key or section that its
    form does not read is an error too."""
    net = config.network
    gen = net.get("generator")
    if gen is not None:
        scenarios = _in_section("network", _generated_scenarios, net)
    else:
        inter = config.interference or {}
        instance = _in_section(
            "network", make_instance, net["nodes"], _inline_edges(net["edges"]),
            _inline_flows(config.flows, net["nodes"]),
            inter.get("model", "single-transmitter"), inter.get("eligibility", "any"),
            inter.get("actions"))
        scenarios = [Scenario("inline", "", instance,
                              _inline_costs(config.costs, instance.dest_pairs()))]
    unread = [f"network.{key}" for key in net if key not in _READS[gen]]
    if gen is not None:
        unread += [name for name in ("flows", "interference", "costs")
                   if getattr(config, name) is not None]
    if unread:
        form = "an inline" if gen is None else f"a {gen}"
        raise ValueError(f"{', '.join(unread)}: not read by {form} network")
    return scenarios


def _generated_scenarios(net):
    gen, sizes = net["generator"], net.get("sizes", [net.get("n")])
    if gen not in ("star", "line", "graph-enum"):
        raise ValueError(f"unknown generator {gen!r}")
    if not sizes or None in sizes:
        raise ValueError("a generator needs 'n' or a non-empty 'sizes'")
    out = []
    if gen == "star":
        for n in sizes:
            rng = np.random.default_rng(
                np.random.SeedSequence((net.get("generator_seed", 0), n)))
            instance, cost_fns = gen_star(
                n, weight_rule=net.get("weight_rule", "i-over-n"),
                reliability_rule=net.get("reliability", "uniform"),
                rng=rng, cost_rule=net.get("cost_rule", "weighted-linear"))
            out.append(Scenario(f"star-n{n}", "", instance, cost_fns))
        return out
    if gen == "line":
        inter = net.get("interference", "parity")
        for n in sizes:
            instance, cost_fns = gen_line(n, interference=inter)
            out.append(Scenario(f"line-n{n}-{inter}", "", instance, cost_fns))
        return out
    # graph-enum: all-to-all broadcast on every connected n-node topology
    for n in sizes:
        graphs = enumerate_connected_graphs(n)
        wanted = net.get("graph_ids")
        unknown = sorted(set(wanted or ()) - set(range(len(graphs))))
        if unknown:
            raise ValueError(f"graph_ids {unknown} name no graph: the {n}-node graphs are "
                             f"0..{len(graphs) - 1}")
        for gid, edges in enumerate(graphs):
            if wanted is not None and gid not in wanted:
                continue
            instance, cost_fns = broadcast_instance(n, edges)
            out.append(Scenario(f"graphs-n{n}", gid, instance, cost_fns))
    return out


def _parse_targets(raw):
    if isinstance(raw, (int, float)):
        return float(raw)
    return {parse_pair(k): float(v) for k, v in raw.items()}


def policy_label(pol, idx, seen):
    label = pol.get("label")
    if label is None:
        mode = pol.get("target_mode", "fixed")
        label = pol["name"] if mode == "fixed" else f"{pol['name']}-{mode}"
    if label in seen:
        label = f"{label}#{idx}"
    seen.add(label)
    return label


def build_sim_config(pol, scenario, horizon, seed, sim_section):
    """Translate one config policy entry into a SimConfig for a scenario."""
    cfg = _entry_config(pol, horizon, seed, sim_section)
    if _tunes(pol):
        cfg.policy_params["probabilities"] = optimize_randomized(
            scenario.instance, scenario.cost_fns, **_tuner_args(pol)).probabilities
    if _solves(pol):
        # one solve serves both
        from .dp import dp_optimal
        solution = dp_optimal(scenario.instance, scenario.cost_fns, **_dp_args(pol))
        if pol["name"] == "dp-table":
            cfg.policy_params["solution"] = solution
        if pol.get("target_mode") == "oracle-dp":
            # solved once here, so every seed runs at the same fixed targets
            cfg.targets = dict(solution.per_pair_average)
    return cfg


def _tunes(pol):
    """Whether building the entry runs the randomized tuner."""
    return pol.get("name") == "randomized" and "probabilities" not in pol


def _solves(pol):
    """Whether building the entry solves the DP: for its table, its targets or both."""
    return pol.get("name") == "dp-table" or pol.get("target_mode") == "oracle-dp"


def _tuner_args(pol):
    """``optimize_randomized``'s arguments for a randomized entry without
    'probabilities', checked by the tuner's rule before any work: its budget,
    its horizon and an rng from its ``tuning_seed``."""
    if "budget" not in pol:
        raise ValueError("randomized needs 'probabilities' or a tuning 'budget'")
    args = {"search_budget": pol["budget"], "horizon": pol.get("tuning_horizon", TUNING_HORIZON)}
    _check_tuning(**args)
    seed = pol.get("tuning_seed", 0)
    if not is_int(seed) or seed < 0:
        raise ValueError(f"tuning_seed must be an integer >= 0, got {seed!r}")
    return dict(args, rng=np.random.default_rng(np.random.SeedSequence((seed, 0xBE57))))


def _dp_args(pol):
    """The DP arguments an entry sets; unset ones keep ``dp_optimal``'s defaults."""
    return {key: pol[key] for key in ("a_cap", "tolerance") if key in pol}


# the entry keys that each policy, and each target mode, reads besides
# 'name', 'label' and 'target_mode'; a randomized entry reads the tuner's
# keys only without 'probabilities'
_POLICY_KEYS = {
    "age-debt": ("variant", "tie_break", "use_intermediate_queues"),
    "max-weight": (),
    "randomized": ("probabilities",),
    "constant": ("action_index",),
    "dp-table": ("a_cap", "tolerance"),
}
_TUNER_KEYS = ("budget", "tuning_horizon", "tuning_seed")
_MODE_KEYS = {
    "fixed": ("targets",),
    "flow-control": tuple(f.name for f in fields(FlowControlConfig)),
    "gradient-descent": tuple(f.name for f in fields(GradientDescentConfig)),
    "oracle-dp": ("a_cap", "tolerance"),
}


def _unread_keys(pol):
    """The keys of an entry, of a known policy and target mode, that neither reads."""
    mode = pol.get("target_mode", "fixed")
    reads = {"name", "label", "target_mode", *_POLICY_KEYS[pol["name"]], *_MODE_KEYS[mode],
             *(_TUNER_KEYS if _tunes(pol) else ())}
    return [key for key in pol if key not in reads]


def _entry_config(pol, horizon, seed, sim_section):
    """An entry's SimConfig before any tuning or solving, built through the
    constructors that check its fields."""
    name = pol.get("name")
    mode = pol.get("target_mode", "fixed")
    params = {}
    targets = fc = gd = None
    if name == "age-debt":
        params["variant"] = pol.get("variant", "auto")
    if name == "constant":
        params["action_index"] = pol.get("action_index")
    if name == "randomized" and "probabilities" in pol:
        params["probabilities"] = tuple(pol["probabilities"])

    if mode == "fixed" and "targets" in pol:
        targets = _parse_targets(pol["targets"])
    elif mode == "flow-control":
        fc = _mode_config(FlowControlConfig, mode, pol, {})
    elif mode == "gradient-descent":
        gd = _mode_config(GradientDescentConfig, mode, pol,
                          {key: _parse_targets(pol[key]) for key in ("initial", "floor")
                           if key in pol})

    return SimConfig(
        horizon=horizon, seed=seed, policy=name, policy_params=params, targets=targets,
        target_mode="fixed" if mode == "oracle-dp" else mode,  # at the DP solve's targets
        flow_control=fc, gradient_descent=gd, tie_break=pol.get("tie_break", "freshest"),
        use_intermediate_queues=pol.get("use_intermediate_queues", True),
        trace_detail=sim_section.get("trace_detail", "metrics-only"))


def _mode_config(cls, mode, pol, parsed):
    """A target mode's config ``cls`` from the entry's keys that name its
    fields, ``parsed`` ones as given; a required field the entry lacks is
    named."""
    missing = [f.name for f in fields(cls) if f.name not in pol
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"target_mode {mode!r} needs {', '.join(map(repr, missing))}")
    return cls(**{f.name: parsed.get(f.name, pol[f.name]) for f in fields(cls) if f.name in pol})


def check_policies(config, scenarios):
    """Check every policy entry on every scenario before any tuning, solving
    or running, by the entry's constructors, the key tables of its policy
    and target mode, ``run``'s own helpers and the DP's state count. Raises
    one ``ValueError`` with a line per problem, each starting ``policies[i]``
    and naming the scenario where it depends on one, and a line for a
    ``sim.seeds`` list with no seed to run or per bad seed."""
    horizon, errors = config.sim["horizon"], []
    if not config.sim["seeds"]:
        errors.append("sim.seeds: need at least one seed")
    for i, seed in enumerate(config.sim["seeds"]):
        try:
            SimConfig(horizon=1, seed=seed)  # the seed's own rule
        except ValueError as exc:
            errors.append(f"sim.seeds[{i}]: {exc}")
    for i, pol in enumerate(config.policies):
        try:
            cfg = _entry_config(pol, horizon, 0, config.sim)
            gd = cfg.gradient_descent
            if gd is not None and horizon % gd.epoch_length:
                raise ValueError(f"epoch_length must divide sim.horizon "
                                 f"({horizon} % {gd.epoch_length} != 0)")
            if cfg.policy == "age-debt":
                _age_debt_variant(cfg.policy_params)
            if _tunes(pol):
                _tuner_args(pol)
        except (TypeError, ValueError, OverflowError) as exc:  # an int past float range
            errors.append(f"policies[{i}]: {exc}")
            continue
        if unread := _unread_keys(pol):
            errors.append(f"{', '.join(f'policies[{i}].{key}' for key in unread)}: not read by "
                          f"{pol['name']} with target_mode {pol.get('target_mode', 'fixed')!r}")
            continue
        for scenario in scenarios:
            inst = scenario.instance
            try:
                if pol.get("target_mode") != "oracle-dp":
                    _resolve_targets(cfg, inst.dest_pairs())
                if cfg.policy in ("max-weight", "constant") or \
                        "probabilities" in cfg.policy_params:
                    _policy(inst, scenario.cost_fns, cfg, None)  # run's decision rule
                if _solves(pol):
                    dp_state_count(inst, **_dp_args(pol))
            except (TypeError, ValueError) as exc:
                gid = f" graph {scenario.graph_id}" if scenario.graph_id != "" else ""
                errors.append(f"policies[{i}] on {scenario.scenario_id}{gid}: {exc}")
    if errors:
        raise ValueError("\n".join(errors))


def _worker(task):
    """Run one pool task, in a worker process or in this one: ``("build",
    pol, scenario, horizon, seed, sim_section)`` returns the group's
    SimConfig from ``build_sim_config``, and ``("run", scenario, label, cfg,
    out_path, timing)`` runs one (scenario, policy, seed) and returns its
    CSV row."""
    kind, *args = task
    return build_sim_config(*args) if kind == "build" else _run_task(*args)


def _run_task(scenario, label, cfg, out_path, timing):
    """One run's CSV row; a full-detail trace goes to its own file next to the CSV."""
    t0 = time.perf_counter()
    metrics = run(scenario.instance, scenario.cost_fns, cfg)
    wall_ms = int((time.perf_counter() - t0) * 1000) if timing else 0
    if cfg.target_mode == "fixed" and cfg.policy == "age-debt":
        flags = stability_diagnostic(metrics)
        violations = sum(1 for ok in flags.values() if not ok)
    else:
        violations = ""
    row = {
        "scenario_id": scenario.scenario_id,
        "graph_id": scenario.graph_id,
        "policy": label,
        "seed": cfg.seed,
        "T": cfg.horizon,
        "sum_cost": metrics.sum_cost,
        "stability_violations": violations,
        "max_QT_over_T": max(metrics.per_pair_debt_rate.values()),
        "wall_ms": wall_ms,
    }
    for pair, c in metrics.per_pair_cost.items():
        row[f"cost_{pair[0]}_{pair[1]}"] = c
    if metrics.trace is not None:
        gid = scenario.graph_id
        tag = f"{scenario.scenario_id}{'-g' + str(gid) if gid != '' else ''}" \
              f"-{label}-s{cfg.seed}"
        export_trace(metrics, f"{out_path}.trace.{tag}.csv")
    return row


class _InProcess:
    """A pool whose ``submit`` runs the task in this process at once."""

    def submit(self, fn, task):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(task))
        return future


def _schedule(pool, groups, seeds, horizon, sim_section, out_path, timing):
    """Every group's rows, in group order, then seed order, from ``pool``:
    the builds that do real work first, then each other group's runs, then
    each built group's runs as its build returns."""
    from concurrent.futures import FIRST_COMPLETED, wait

    def runs(g, base):
        scenario, _, label = groups[g]
        return [pool.submit(_worker, ("run", scenario, label, replace(base, seed=seed),
                                      out_path, timing)) for seed in seeds]

    works = [_tunes(pol) or _solves(pol) for (_, pol, _) in groups]
    building = {pool.submit(_worker, ("build", pol, scenario, horizon, seeds[0], sim_section)): g
                for g, (scenario, pol, _) in enumerate(groups) if works[g]}
    row_futures = {g: runs(g, build_sim_config(pol, scenario, horizon, seeds[0], sim_section))
                   for g, (scenario, pol, _) in enumerate(groups) if not works[g]}
    while building:
        done = wait(building, return_when=FIRST_COMPLETED).done
        for future in [f for f in building if f in done]:  # in submission order
            g = building.pop(future)
            row_futures[g] = runs(g, future.result())
    return [future.result() for g in range(len(groups)) for future in row_futures[g]]


def run_sweep(config, out_path, jobs=1, timing=False):
    """Execute the sweep and write its CSV; returns the row dicts.

    ``check_policies`` passes every entry on every scenario first. Then
    each (scenario, policy) group's SimConfig is built once: a build that
    does real work (a tuner run or a DP solve) is a task of its own,
    submitted before any run, and its group's seed runs are submitted as
    soon as it returns; every other group's runs are submitted at once.
    Every run, serial or in a worker process, runs on its group's prebuilt
    objects, and rows keep their (scenario, policy, seed) order. ``jobs=1``
    runs the same schedule in this process. At most one worker process
    starts per run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = config.sim["seeds"]
    horizon = config.sim["horizon"]
    scenarios = expand_scenarios(config)
    check_policies(config, scenarios)
    seen = set()
    labels = [policy_label(p, i, seen) for i, p in enumerate(config.policies)]
    groups = [(scenario, pol, label) for scenario in scenarios
              for pol, label in zip(config.policies, labels)]
    n_runs = len(groups) * len(seeds)
    if jobs > 1 and n_runs > 1:
        # imported here: loading the process pool costs every import of the
        # package tens of milliseconds, and only parallel sweeps use it
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            try:
                results = _schedule(pool, groups, seeds, horizon, config.sim, out_path, timing)
            except BaseException:
                pool.shutdown(cancel_futures=True)  # no queued task runs for nothing
                raise
    else:
        results = _schedule(_InProcess(), groups, seeds, horizon, config.sim, out_path, timing)

    cost_cols = set()
    for row in results:
        cost_cols.update(c for c in row if c.startswith("cost_"))
    cost_cols = sorted(cost_cols, key=lambda c: tuple(int(x) for x in c.split("_")[1:]))
    header = list(FIXED_COLUMNS) + cost_cols

    rows = []
    for g in range(0, len(results), len(seeds)):
        group = results[g:g + len(seeds)]
        rows.extend(group)
        rows.extend(_aggregate(group, cost_cols))

    with open(out_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header, restval="")
        w.writeheader()
        for row in rows:
            w.writerow({k: f"{v:.10g}" if isinstance(v, float) else str(v)
                        for k, v in row.items()})
    return rows


def _aggregate(group, cost_cols):
    numeric = ["sum_cost", "max_QT_over_T"] + [c for c in cost_cols if c in group[0]]
    base = {
        "scenario_id": group[0]["scenario_id"],
        "graph_id": group[0]["graph_id"],
        "policy": group[0]["policy"],
        "T": group[0]["T"],
        "stability_violations": "",
        "wall_ms": "",
    }
    mean_row = dict(base, seed="mean")
    err_row = dict(base, seed="stderr")
    n = len(group)
    for col in numeric:
        vals = [row[col] for row in group]
        mu = math.fsum(vals) / n
        mean_row[col] = mu
        if n > 1:
            var = math.fsum((v - mu) ** 2 for v in vals) / (n - 1)
            err_row[col] = math.sqrt(var / n)
        else:
            err_row[col] = 0.0
    return [mean_row, err_row]
