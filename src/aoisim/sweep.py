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
from dataclasses import dataclass, replace

import numpy as np

from .config import parse_edge, parse_pair
from .costs import CostFunction
from .network import make_instance
from .policies import RandomizedPolicy, optimize_randomized
from .scenarios import broadcast_instance, enumerate_connected_graphs, gen_line, gen_star
from .sim import SimConfig, export_trace, run, stability_diagnostic
from .targets import FlowControlConfig, GradientDescentConfig

FIXED_COLUMNS = ("scenario_id", "graph_id", "policy", "seed", "T", "sum_cost",
                 "stability_violations", "max_QT_over_T", "wall_ms")


@dataclass
class Scenario:
    scenario_id: str
    graph_id: object          # enumeration index or ""
    instance: object
    cost_fns: dict


def _inline_costs(cost_section, dest_pairs):
    default_spec = cost_section.get("default", {"kind": "linear", "weight": 1.0})
    per_pair = cost_section.get("per_pair", {})
    section_cap = cost_section.get("cap")
    out = {}
    for pair in dest_pairs:
        spec = None
        for key, s in per_pair.items():
            if parse_pair(key) == pair:
                spec = s
                break
        spec = dict(spec if spec is not None else default_spec)
        if section_cap is not None and "cap" not in spec:
            spec["cap"] = section_cap
        out[pair] = CostFunction.from_dict(spec)
    return out


def expand_scenarios(config):
    """Materialize the list of scenarios a config describes."""
    net = config.network
    gen = net.get("generator")
    if gen is None:
        reliability = dict(parse_edge(e) for e in net["edges"])
        flows = config.flows
        if flows == "all-broadcast":
            n = net["nodes"]
            flows = [(s, set(range(1, n + 1)) - {s}) for s in range(1, n + 1)]
        else:
            flows = [(f["source"], set(f["destinations"])) for f in flows]
        inter = config.interference or {}
        instance = make_instance(
            net["nodes"], reliability, flows,
            interference=inter.get("model", "single-transmitter"),
            eligibility=inter.get("eligibility", "any"),
            explicit_actions=inter.get("actions"))
        cost_fns = _inline_costs(config.costs, instance.dest_pairs())
        return [Scenario("inline", "", instance, cost_fns)]

    sizes = net.get("sizes", [net.get("n")])
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
    name = pol["name"]
    mode = pol.get("target_mode", "fixed")
    params = {}
    targets = None
    fc = None
    gd = None
    if name == "age-debt":
        params["variant"] = pol.get("variant", "auto")
    if name == "constant":
        params["action_index"] = pol["action_index"]
    if name == "randomized":
        if "probabilities" in pol:
            # validated here, before any task runs
            params["probabilities"] = RandomizedPolicy(tuple(pol["probabilities"])).probabilities
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence((pol.get("tuning_seed", 0), 0xBE57)))
            params["probabilities"] = optimize_randomized(
                scenario.instance, scenario.cost_fns,
                search_budget=pol.get("budget", 150), rng=rng,
                horizon=pol.get("tuning_horizon", 2000)).probabilities
    if name == "dp-table" or mode == "oracle-dp":
        # one solve serves both; only the keys the entry sets are passed
        from .dp import dp_optimal
        solution = dp_optimal(scenario.instance, scenario.cost_fns,
                              **{key: pol[key] for key in ("a_cap", "tolerance") if key in pol})
    if name == "dp-table":
        params["solution"] = solution

    if mode == "fixed":
        raw = pol.get("targets", 0.0)
        targets = _parse_targets(raw)
    elif mode == "flow-control":
        fc = FlowControlConfig(V=float(pol["V"]), alpha_max=float(pol["alpha_max"]))
    elif mode == "gradient-descent":
        init = pol["initial"]
        if not isinstance(init, (int, float)):
            init = _parse_targets(init)
        floor = pol.get("floor")
        if isinstance(floor, dict):
            floor = _parse_targets(floor)
        gd = GradientDescentConfig(
            epoch_length=int(pol["epoch_length"]), epochs=int(pol["epochs"]),
            step=float(pol["step"]), threshold=float(pol["threshold"]),
            initial=init, floor=floor)
    elif mode == "oracle-dp":
        # solved once here, so every seed runs at the same fixed targets
        targets = dict(solution.per_pair_average)
        mode = "fixed"

    return SimConfig(
        horizon=horizon, seed=seed, policy=name, policy_params=params,
        target_mode=mode, targets=targets, flow_control=fc,
        gradient_descent=gd,
        tie_break=pol.get("tie_break", "freshest"),
        use_intermediate_queues=pol.get(
            "use_intermediate_queues",
            sim_section.get("use_intermediate_queues", True)),
        trace_detail=sim_section.get("trace_detail", "metrics-only"))


def _worker(task):
    """Run one (scenario, policy, seed) task on prebuilt objects and return
    its CSV row; a full-detail trace goes to its own file next to the CSV."""
    scenario, label, cfg, out_path, timing = task
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


def run_sweep(config, out_path, jobs=1, timing=False):
    """Execute the sweep and write its CSV; returns the row dicts.

    Scenarios and each (scenario, policy) SimConfig, tuned policies and DP
    tables included, are built once here; every task, serial or in a
    worker process, runs on those prebuilt objects. At most one worker
    process starts per task.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    seeds = config.sim["seeds"]
    horizon = config.sim["horizon"]
    seen = set()
    labels = [policy_label(p, i, seen) for i, p in enumerate(config.policies)]
    tasks = []
    for scenario in expand_scenarios(config):
        for pol, label in zip(config.policies, labels):
            base = build_sim_config(pol, scenario, horizon, seeds[0], config.sim)
            tasks.extend((scenario, label, replace(base, seed=seed), out_path, timing)
                         for seed in seeds)
    if jobs > 1 and len(tasks) > 1:
        # imported here: loading the process pool costs every import of the
        # package tens of milliseconds, and only parallel sweeps use it
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = [_worker(task) for task in tasks]

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
    if not group:
        return []
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
