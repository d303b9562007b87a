"""The benchmark's three workloads: inputs, program calls and output checks.

Each workload has a ``setup`` that builds its inputs through the public
generators and config parsing, and a ``round`` that makes the workload's
program calls once and checks every output against the independent
references in ``refs.py``. A run repeats whole rounds. Only program calls
are timed (``Meter``); the checks are not.

An operation is one program call with the checks on its output
(``Ledger``). A check marked ``known`` is a fault in the program that this
benchmark keeps in view: its operation counts as failed, but it does not
make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import statistics
import time

import numpy as np

import aoisim
import refs

# ---------------------------------------------------------------- accounting


class Op:
    def __init__(self, name):
        self.name = name
        self.problems = []   # (message, known)

    def check(self, cond, msg, known=False):
        if not cond:
            self.problems.append((msg, known))
        return cond


class Ledger:
    """Operations attempted in a run and the checks they missed."""

    def __init__(self):
        self.ops = []

    def op(self, name):
        o = Op(name)
        self.ops.append(o)
        return o

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for o in self.ops if o.problems)

    def unexpected(self):
        return [(o.name, msg) for o in self.ops for (msg, known) in o.problems if not known]

    def known(self):
        return [(o.name, msg) for o in self.ops for (msg, known) in o.problems if known]


def _cpu_s():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Meter:
    """Host and CPU time of the program calls of one round, and the slots
    and host time of its reported closed-loop runs."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.run_slots = 0
        self.run_s = 0.0

    def call(self, fn, *args, **kwargs):
        c0 = _cpu_s()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += _cpu_s() - c0
        return out

    def run(self, instance, cost_fns, cfg):
        wall0 = self.wall_s
        out = self.call(aoisim.run, instance, cost_fns, cfg)
        self.run_slots += cfg.horizon
        self.run_s += self.wall_s - wall0
        return out


def _seeds(seed, tag, k):
    return [int(x) for x in np.random.SeedSequence((seed, tag)).generate_state(k)]


def _mean_se(vals):
    return statistics.fmean(vals), statistics.stdev(vals) / math.sqrt(len(vals))


# ---------------------------------------------------------------- single-hop

DP_A_CAP = 30
DP_TOLERANCE = 1e-3
# Per-pair averages are to sum to the gain. The exact cycle averages of a
# reliable star meet this to DP_TOLERANCE; unreliable stars get 1% for the
# Monte Carlo estimate of a light-tailed cost.
PAIR_SUM_TOL_RELIABLE = 1e-2
PAIR_SUM_REL_TOL_UNRELIABLE = 0.01
UL_SEEDS, UL_HORIZON = 8, 5_000      # unreliable-linear 5-node star runs
S10_SEEDS, S10_HORIZON = 3, 20_000   # 10-node star runs
FOA_HORIZON = 20_000                 # age-debt at the reliable-foa targets
Z = 4.0                              # standard errors allowed in statistical checks
# the functions-of-age costs cycle 15A, e^A, A^2, A^3 over sources 1..4
FOA_KINDS = {1: "15A", 2: "e^A", 3: "A^2", 4: "A^3"}


def setup_single_hop(seed):
    stars = {
        "reliable-foa": aoisim.gen_star(5, reliability_rule="reliable",
                                        cost_rule="functions-of-age"),
        "unreliable-linear": aoisim.gen_star(5, reliability_rule="uniform",
                                             rng=np.random.default_rng(0),
                                             cost_rule="weighted-linear"),
        "unreliable-foa": aoisim.gen_star(5, reliability_rule="uniform",
                                          rng=np.random.default_rng(0),
                                          cost_rule="functions-of-age"),
    }
    star10 = aoisim.gen_star(10, rng=np.random.default_rng(np.random.SeedSequence((0, 10))))
    return {"stars": stars, "star10": star10, "seed": seed}


def _star_params(instance, cost_fns):
    """Per-source (weights, reliabilities) of a weighted-linear star, read
    from the generated instance."""
    hub = instance.node_count
    srcs = sorted(k for (k, _j) in cost_fns)
    return ([cost_fns[(k, hub)].weight for k in srcs],
            [instance.edge_prob(k, hub) for k in srcs])


def _dp_op(ledger, meter, extras, label, instance, cost_fns):
    op = ledger.op(f"dp_optimal {label}")
    wall0 = meter.wall_s
    sol = meter.call(aoisim.dp_optimal, instance, cost_fns, a_cap=DP_A_CAP,
                     tolerance=DP_TOLERANCE)
    extras[f"dp.solve_s.{label}"] = meter.wall_s - wall0
    extras[f"dp.iterations.{label}"] = sol.iterations
    reliable = all(p == 1.0 for p in instance.reliability.values())
    total = math.fsum(sol.per_pair_average.values())
    tol = (PAIR_SUM_TOL_RELIABLE if reliable
           else PAIR_SUM_REL_TOL_UNRELIABLE * abs(sol.gain))
    op.check(abs(total - sol.gain) <= tol,
             f"per-pair averages sum to {total:.4f}, gain {sol.gain:.4f}",
             known=(label == "unreliable-foa"))
    return op, sol


def round_single_hop(inputs, ledger, meter, extras, out_dir):
    # The closed-loop runs sit between the DP solves, so that slots_per_s
    # samples the host over the whole round rather than over its last third.
    seed = inputs["seed"]
    stars = inputs["stars"]

    # 10-node weighted-linear star, one seed at a time: max-weight, age-debt
    # at the max-weight costs, flow control and uniform randomized
    inst10, costs10 = inputs["star10"]
    w10, p10 = _star_params(inst10, costs10)
    lb10 = refs.kadota_lower_bound(w10, p10)
    n_act = len(inst10.action_space)
    q = 1.0 / (n_act - 1)
    uniform = tuple([0.0] + [q] * (n_act - 1))
    fc = aoisim.FlowControlConfig(V=10.0, alpha_max=50.0)
    rnd_costs = []

    def star10_run(label, s, **cfg):
        op = ledger.op(f"run star10 {label}")
        m = meter.run(inst10, costs10, aoisim.SimConfig(horizon=S10_HORIZON, seed=s, **cfg))
        op.check(m.sum_cost >= lb10, f"{label} cost {m.sum_cost:.4f} below bound {lb10:.4f}")
        return op, m

    def star10_seed(s):
        _, mw = star10_run("max-weight", s, policy="max-weight")
        op, ad = star10_run("age-debt", s, policy="age-debt", targets=dict(mw.per_pair_cost))
        op.check(ad.sum_cost <= 1.05 * mw.sum_cost,
                 f"age-debt / max-weight = {ad.sum_cost / mw.sum_cost:.4f}")
        op, fcm = star10_run("flow-control", s, policy="age-debt", target_mode="flow-control",
                             flow_control=fc)
        op.check(fcm.sum_cost <= 1.15 * mw.sum_cost,
                 f"flow-control / max-weight = {fcm.sum_cost / mw.sum_cost:.4f}")
        op, rnd = star10_run("randomized", s, policy="randomized",
                             policy_params={"probabilities": uniform})
        rnd_costs.append(rnd.sum_cost)
        return op

    seeds10 = _seeds(seed, 2, S10_SEEDS)

    # the paper's DP table, and age-debt at its targets keeps debts stable
    inst, costs = stars["reliable-foa"]
    op, sol = _dp_op(ledger, meter, extras, "reliable-foa", inst, costs)
    cyc = refs.paper_table_cycle_values()
    slack = 0.5 * 10 ** -refs.PAPER_TABLE_DIGITS + DP_TOLERANCE
    op.check(abs(sol.gain - refs.PAPER_TABLE["gain"]) <= slack
             and abs(sol.gain - cyc["gain"]) <= DP_TOLERANCE,
             f"gain {sol.gain:.4f} vs table {refs.PAPER_TABLE['gain']}")
    for src, kind in FOA_KINDS.items():
        v = sol.per_pair_average[(src, 5)]
        op.check(abs(v - refs.PAPER_TABLE[kind]) <= slack and abs(v - cyc[kind]) <= 1e-6,
                 f"{kind} source average {v:.4f} vs table {refs.PAPER_TABLE[kind]}")
    op = ledger.op("run reliable-foa age-debt at DP targets")
    m = meter.run(inst, costs, aoisim.SimConfig(horizon=FOA_HORIZON, seed=seed, policy="age-debt",
                                                targets=dict(sol.per_pair_average)))
    rate = math.fsum(m.per_pair_debt_rate.values())
    op.check(rate < 0.05, f"sum Q(T)/T = {rate:.4f} at the DP targets")
    star10_seed(seeds10[0])

    # unreliable-linear star: the bound, then age-debt at the DP targets and
    # max-weight against the DP gain
    inst_ul, costs_ul = stars["unreliable-linear"]
    op, sol_ul = _dp_op(ledger, meter, extras, "unreliable-linear", inst_ul, costs_ul)
    w, p = _star_params(inst_ul, costs_ul)
    lb_ul = refs.kadota_lower_bound(w, p)
    op.check(lb_ul <= sol_ul.gain, f"lower bound {lb_ul:.4f} above DP gain {sol_ul.gain:.4f}")
    for policy in ("age-debt", "max-weight"):
        costs_seen = []
        for s in _seeds(seed, 1, UL_SEEDS):
            kw = {"targets": dict(sol_ul.per_pair_average)} if policy == "age-debt" else {}
            op = ledger.op(f"run unreliable-linear {policy}")
            m = meter.run(inst_ul, costs_ul, aoisim.SimConfig(
                horizon=UL_HORIZON, seed=s, policy=policy, **kw))
            op.check(m.sum_cost >= lb_ul, f"{policy} cost {m.sum_cost:.4f} below bound {lb_ul:.4f}")
            costs_seen.append(m.sum_cost)
        mean, se = _mean_se(costs_seen)
        op.check(sol_ul.gain <= mean + Z * se,
                 f"DP gain {sol_ul.gain:.4f} above {policy} mean {mean:.4f} + {Z} se {se:.4f}")
    star10_seed(seeds10[1])

    inst_uf, costs_uf = stars["unreliable-foa"]
    _dp_op(ledger, meter, extras, "unreliable-foa", inst_uf, costs_uf)
    op = star10_seed(seeds10[2])

    ref = refs.randomized_star_cost(w10, [q] * len(w10), p10)
    se = refs.randomized_star_stderr(w10, [q] * len(w10), p10, S10_HORIZON, len(rnd_costs))
    mean = statistics.fmean(rnd_costs)
    op.check(abs(mean - ref) <= Z * se,
             f"randomized mean {mean:.4f} vs closed form {ref:.4f} (se bound {se:.4f})")


# ---------------------------------------------------------------- broadcast-exact

BC_N = 5
BC_HORIZON = 300
BC_STATES = 4          # drawn states per graph for the brute-force decision check
BC_RELIABILITY = 1.0


def setup_broadcast(seed):
    graphs5 = aoisim.enumerate_connected_graphs(BC_N)
    graphs6 = aoisim.enumerate_connected_graphs(6)
    instances = [aoisim.broadcast_instance(BC_N, edges, reliability=BC_RELIABILITY)
                 for edges in graphs5]
    return {"graphs": {5: graphs5, 6: graphs6}, "instances": instances, "seed": seed}


def check_setup_broadcast(inputs, ledger):
    """The setup's two enumerations, checked once per run."""
    for n, graphs in inputs["graphs"].items():
        op = ledger.op(f"enumerate_connected_graphs {n}")
        op.check(len(graphs) == refs.CONNECTED_GRAPH_CLASSES[n],
                 f"{len(graphs)} classes on {n} nodes, expected {refs.CONNECTED_GRAPH_CLASSES[n]}")
        op.check(all(refs.is_connected(n, g) for g in graphs), f"a disconnected graph on {n} nodes")
        if n == BC_N:
            forms = {refs.canonical_form(n, g) for g in graphs}
            op.check(len(forms) == len(graphs), f"isomorphic graphs among the {n}-node classes")


def _draw_state(instance, rng):
    """A simulator state: ages, buffers, debts and flow-control targets."""
    pairs = instance.tracked_pairs()
    n = instance.node_count
    t = 1000
    age = {pair: int(rng.integers(1, 25)) for pair in pairs}
    buffer = {(k, k): t - 1 for k in range(1, n + 1)}
    for (k, i) in pairs:
        if rng.random() < 0.8:
            buffer[(i, k)] = t - age[(k, i)]
    debts = {pair: (float(rng.uniform(0.0, 60.0)) if rng.random() < 0.7 else 0.0)
             for pair in pairs}
    targets = {pair: (40.0 if rng.random() < 0.5 else 1.0) for pair in pairs}
    return age, buffer, debts, targets


def _brute_force_scores(instance, age, buffer, debts, targets):
    scores = []
    for action in instance.action_space:
        links = []
        for (tx, rx, k) in action:
            if (k, rx) not in age:
                continue
            if tx == k:
                links.append((0, (k, rx), BC_RELIABILITY))
            elif (tx, k) in buffer:
                links.append((age[(k, tx)], (k, rx), BC_RELIABILITY))
        scores.append(refs.brute_force_drift(links, age, debts, targets, float))
    return scores


def round_broadcast(inputs, ledger, meter, extras, out_dir):
    seed = inputs["seed"]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    fc = aoisim.FlowControlConfig(V=10.0, alpha_max=40.0)
    for gid, (edges, (inst, costs)) in enumerate(zip(inputs["graphs"][BC_N],
                                                      inputs["instances"])):
        pairs = list(costs)
        dist = refs.hop_distances(BC_N, edges)
        sum_lb = refs.broadcast_sum_bound(len(pairs), BC_HORIZON)
        pair_lb = {pair: refs.hop_distance_bound(dist[pair], BC_HORIZON) for pair in pairs}

        def check_bounds(op, m, label):
            op.check(m.sum_cost >= sum_lb - 1e-9,
                     f"graph {gid} {label}: cost {m.sum_cost:.3f} below {sum_lb:.3f}")
            low = [pair for pair in pairs if m.per_pair_cost[pair] < pair_lb[pair] - 1e-9]
            op.check(not low, f"graph {gid} {label}: pairs {low} below their hop bound")

        op = ledger.op(f"run graph {gid} age-debt")
        ad = meter.run(inst, costs, aoisim.SimConfig(
            horizon=BC_HORIZON, seed=seed, policy="age-debt", target_mode="flow-control",
            flow_control=fc))
        check_bounds(op, ad, "age-debt")

        op = ledger.op(f"run graph {gid} uniform")
        n_act = len(inst.action_space)
        probs = tuple([0.0] + [1.0 / (n_act - 1)] * (n_act - 1))
        uni = meter.run(inst, costs, aoisim.SimConfig(
            horizon=BC_HORIZON, seed=seed, policy="randomized",
            policy_params={"probabilities": probs}))
        check_bounds(op, uni, "uniform")
        op.check(ad.sum_cost < uni.sum_cost,
                 f"graph {gid}: age-debt {ad.sum_cost:.3f} not below uniform {uni.sum_cost:.3f}")

        for _ in range(BC_STATES):
            age, buffer, debts, targets = _draw_state(inst, rng)
            debt = aoisim.DebtState(dest=dict(debts), intermediate={})
            op = ledger.op(f"age_debt_action graph {gid}")
            dec = meter.call(aoisim.age_debt_action, debt, age, buffer, targets, costs, inst,
                             tie_break="freshest")
            bf = _brute_force_scores(inst, age, buffer, debts, targets)
            best = min(bf)
            op.check(bf[dec.action_index] <= best + 1e-9 * max(1.0, abs(best)),
                     f"graph {gid}: chosen action drift {bf[dec.action_index]:.6g} "
                     f"above the brute-force minimum {best:.6g}")


# ---------------------------------------------------------------- line-sweep

LINE_SIZES = [3, 5, 8]
LINE_HORIZON = 3_000
LINE_SEEDS = 3
LINE_JOBS = 2
INTERFERENCES = ("parity", "single-transmitter")


def line_config(interference, seed):
    return {
        "network": {"generator": "line", "sizes": LINE_SIZES, "interference": interference},
        "policies": [
            {"name": "age-debt", "target_mode": "flow-control", "V": 10,
             "alpha_max": 4 * max(LINE_SIZES), "label": "fc"},
            {"name": "randomized", "budget": 20, "tuning_horizon": 400,
             "tuning_seed": _seeds(seed, 4, 1)[0], "label": "tuned"},
        ],
        "sim": {"horizon": LINE_HORIZON, "seeds": _seeds(seed, 5, LINE_SEEDS)},
    }


def setup_line_sweep(seed):
    configs = {}
    for inter in INTERFERENCES:
        config, errors = aoisim.parse_config(json.dumps(line_config(inter, seed)))
        if errors:
            raise ValueError(f"line-sweep config for {inter}: {errors}")
        configs[inter] = config
    return {"configs": configs, "seed": seed}


def _check_sweep_csv(op, path, inter, config, extras):
    """Check the sweep's CSV; returns (seed-row slots, seed-row wall ms)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seeds = [str(s) for s in config.sim["seeds"]]
    horizon = config.sim["horizon"]
    slots = 0
    wall_ms = 0
    for n in LINE_SIZES:
        sid = f"line-n{n}-{inter}"
        opt = refs.line_optimum(n, inter)
        by_policy = {}
        for label in ("fc", "tuned"):
            group = [r for r in rows if r["scenario_id"] == sid and r["policy"] == label]
            keys = sorted(r["seed"] for r in group)
            if not op.check(keys == sorted(seeds + ["mean", "stderr"]),
                            f"{sid} {label}: rows {keys}"):
                continue
            seed_rows = {r["seed"]: r for r in group if r["seed"] in seeds}
            by_policy[label] = seed_rows
            for r in seed_rows.values():
                op.check(int(r["T"]) == horizon, f"{sid} {label}: T {r['T']}")
                slots += int(r["T"])
                wall_ms += int(r["wall_ms"])
            agg = {r["seed"]: r for r in group if r["seed"] in ("mean", "stderr")}
            for col in [c for c in rows[0] if c in ("sum_cost", "max_QT_over_T")
                        or c.startswith("cost_")]:
                vals = [float(r[col]) for r in seed_rows.values() if r[col] != ""]
                if not vals:
                    continue
                mu = math.fsum(vals) / len(vals)
                se = (math.sqrt(math.fsum((v - mu) ** 2 for v in vals)
                                / (len(vals) - 1) / len(vals)) if len(vals) > 1 else 0.0)
                # the CSV prints 10 significant digits; mean and standard
                # error move by at most the largest rounding of a seed value
                tol = 1e-9 * max(abs(v) for v in vals)
                for key, ref in (("mean", mu), ("stderr", se)):
                    got = float(agg[key][col])
                    op.check(abs(got - ref) <= tol + 1e-9 * abs(got) + 1e-15,
                             f"{sid} {label} {key} {col}: {got} vs recomputed {ref}")
        if "fc" in by_policy:
            for s, r in by_policy["fc"].items():
                c = float(r["sum_cost"])
                op.check(abs(c - opt) <= n * n / horizon,
                         f"{sid} seed {s}: flow-control {c} vs line optimum {opt}")
                if "tuned" in by_policy:
                    t = float(by_policy["tuned"][s]["sum_cost"])
                    op.check(t >= c, f"{sid} seed {s}: tuned randomized {t} below flow-control {c}")
    extras["sweep.tasks"] = extras.get("sweep.tasks", 0) + sum(
        1 for r in rows if r["seed"] not in ("mean", "stderr"))
    return slots, wall_ms


def round_line_sweep(inputs, ledger, meter, extras, out_dir):
    slots = 0
    wall_ms = 0
    for inter, config in inputs["configs"].items():
        path = os.path.join(out_dir, f"line-sweep-{inter}-s{inputs['seed']}.csv")
        op = ledger.op(f"run_sweep {inter}")
        meter.call(aoisim.run_sweep, config, path, jobs=LINE_JOBS, timing=True)
        s, ms = _check_sweep_csv(op, path, inter, config, extras)
        slots += s
        wall_ms += ms
    # slots per second come from the sweep's own wall_ms column
    meter.run_slots += slots
    meter.run_s += wall_ms / 1000.0


def no_setup_checks(inputs, ledger):
    """Set-up that makes no program call worth an operation of its own."""


# name -> (setup, checks on the set-up's program calls, round)
WORKLOADS = {
    "single-hop": (setup_single_hop, no_setup_checks, round_single_hop),
    "broadcast-exact": (setup_broadcast, check_setup_broadcast, round_broadcast),
    "line-sweep": (setup_line_sweep, no_setup_checks, round_line_sweep),
}
