"""Discrete-time simulation loop.

Slot order, fixed and relied on by the tests:

  1. target update (flow-control mode only, from current debts)
  2. policy decision (sees pre-slot ages, buffers, debts, targets)
  3. channel sampling (counter-based per-edge streams, policy-independent)
  4. packet movement: sources stamp fresh updates, relays forward their
     buffered freshest packet; successful links deliver
  5. age advance and buffer update
  6. destination debt update (uses post-slot ages and this slot's targets)
  7. intermediate debt update, exact age-debt only: case 1 for the relays
     that forwarded a held packet in step 4, with pre-slot ages and the
     chosen action's hop distances from the drift evaluator
  8. metrics accumulation

Gradient-descent target epochs sit outside the slot: every W slots the
targets move and all debt queues reset to zero, while ages carry over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .age import (advance_age, initial_age, initial_buffer, initial_debt,
                  update_destination_debt, update_intermediate_debt)
from .channels import ChannelProcess
from .network import canon_edge
from .policies import (RandomizedPolicy, age_debt_action, get_drift_evaluator,
                       max_weight_action, single_hop_age_debt_action)
from .targets import (FlowControlConfig, GradientDescentConfig,
                      flow_control_update, gd_epoch_update)

_POLICY_RNG_TAG = 0x90110EC

POLICIES = ("age-debt", "max-weight", "randomized", "constant", "dp-table")
TARGET_MODES = ("fixed", "flow-control", "gradient-descent")


@dataclass
class SimConfig:
    horizon: int
    seed: int = 0
    policy: str = "age-debt"
    policy_params: dict = field(default_factory=dict)
    target_mode: str = "fixed"
    targets: object = None              # dict pair->alpha, or scalar for all pairs
    flow_control: FlowControlConfig = None
    gradient_descent: GradientDescentConfig = None
    tie_break: str = "freshest"
    use_intermediate_queues: bool = True
    trace_detail: str = "metrics-only"  # metrics-only | full
    runaway_age: int = 2 ** 40

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target_mode {self.target_mode!r}")
        if self.trace_detail not in ("metrics-only", "full"):
            raise ValueError(f"unknown trace_detail {self.trace_detail!r}")


@dataclass
class RunMetrics:
    horizon: int
    seed: int
    per_pair_cost: dict          # (k, j) -> (1/T) sum_t f(A(t)), t = 1..T
    sum_cost: float              # sum of the per-pair averages
    per_pair_debt_rate: dict     # (k, j) -> Q(T)/T
    max_sum_debt: float          # max over slots of the summed destination debt
    final_targets: dict
    target_history: list = None  # per-epoch targets under gradient descent
    age_histograms: dict = None  # (k, j) -> {age: count}, full trace mode only
    trace: list = None           # (t, pair, A, B, Q, alpha, action_idx) rows


def star_structure(instance):
    """If the instance is a pure single-hop star (every flow unicast into one
    hub, one directed source->hub assignment per non-idle action, no relay
    nodes), return its source list and per-source data; else None."""
    hubs = set()
    for f in instance.flows:
        if f.kind != "unicast":
            return None
        hubs |= f.destinations
    if len(hubs) != 1:
        return None
    hub = next(iter(hubs))
    for f in instance.flows:
        if instance.relays(f):
            return None
    sources = [f.source for f in instance.flows]
    action_of = {}
    for idx, action in enumerate(instance.action_space):
        if len(action) == 0:
            continue
        if len(action) > 1:
            return None
        (tx, rx, k) = action[0]
        if rx != hub or tx != k or k not in instance.flow_by_source:
            return None
        action_of[k] = idx
    if set(action_of) != set(sources):
        return None
    return {
        "hub": hub,
        "sources": sources,
        "action_of": action_of,
        "probs": [instance.edge_prob(s, hub) for s in sources],
    }


class _AgeDebtController:
    def __init__(self, instance, cost_fns, cfg, rng):
        self.instance = instance
        self.cost_fns = cost_fns
        self.tie_break = cfg.tie_break
        self.rng = rng
        variant = cfg.policy_params.get("variant", "auto")
        if variant not in ("auto", "exact"):
            raise ValueError(f"unknown age-debt variant {variant!r}")
        self.star = star_structure(instance) if variant == "auto" else None
        self.evaluator = get_drift_evaluator(instance) if self.star is None else None

    def decide(self, t, age, buffer, debt, targets):
        if self.star is not None:
            hub = self.star["hub"]
            srcs = self.star["sources"]
            pos = single_hop_age_debt_action(
                [age[(s, hub)] for s in srcs],
                [debt.dest[(s, hub)] for s in srcs],
                self.star["probs"],
                [self.cost_fns[(s, hub)] for s in srcs])
            return self.star["action_of"][srcs[pos]]
        decision = age_debt_action(debt, age, buffer, targets, self.cost_fns,
                                   self.instance, tie_break=self.tie_break,
                                   rng=self.rng, evaluator=self.evaluator)
        return decision.action_index


class _MaxWeightController:
    def __init__(self, instance, cost_fns, cfg):
        self.star = star_structure(instance)
        if self.star is None:
            raise ValueError("max-weight policy needs a single-hop star instance")
        hub = self.star["hub"]
        weights = cfg.policy_params.get("weights")
        if weights is None:
            weights = {}
            for s in self.star["sources"]:
                f = cost_fns[(s, hub)]
                weights[s] = f.weight if f.kind == "linear" else 1.0
        self.weights = [weights[s] for s in self.star["sources"]]

    def decide(self, t, age, buffer, debt, targets):
        hub = self.star["hub"]
        srcs = self.star["sources"]
        pos = max_weight_action([age[(s, hub)] for s in srcs],
                                self.star["probs"], self.weights)
        return self.star["action_of"][srcs[pos]]


class _RandomizedController:
    def __init__(self, instance, cfg, rng):
        params = cfg.policy_params
        pol = params.get("policy")
        if pol is None:
            pol = RandomizedPolicy(tuple(params["probabilities"]))
        if len(pol.probabilities) != len(instance.action_space):
            raise ValueError("randomized policy size does not match action space")
        self.policy = pol
        self.rng = rng

    def decide(self, t, age, buffer, debt, targets):
        return self.policy.sample_index(self.rng)


class _ConstantController:
    def __init__(self, instance, cfg):
        idx = cfg.policy_params.get("action_index")
        if idx is None or not (0 <= idx < len(instance.action_space)):
            raise ValueError("constant policy needs a valid action_index")
        self.idx = idx

    def decide(self, t, age, buffer, debt, targets):
        return self.idx


class _DpTableController:
    def __init__(self, instance, cfg):
        self.solution = cfg.policy_params["solution"]

    def decide(self, t, age, buffer, debt, targets):
        return self.solution.action_for(age)


def _build_controller(instance, cost_fns, cfg, rng):
    if cfg.policy == "age-debt":
        return _AgeDebtController(instance, cost_fns, cfg, rng)
    if cfg.policy == "max-weight":
        return _MaxWeightController(instance, cost_fns, cfg)
    if cfg.policy == "randomized":
        return _RandomizedController(instance, cfg, rng)
    if cfg.policy == "constant":
        return _ConstantController(instance, cfg)
    return _DpTableController(instance, cfg)


def _resolve_targets(instance, cost_fns, cfg, dest_pairs):
    mode = cfg.target_mode
    if mode == "flow-control":
        if cfg.flow_control is None:
            raise ValueError("flow-control mode needs a FlowControlConfig")
        return {pair: 1.0 for pair in dest_pairs}
    if mode == "gradient-descent":
        gd = cfg.gradient_descent
        if gd is None:
            raise ValueError("gradient-descent mode needs a GradientDescentConfig")
        init = gd.initial
        if isinstance(init, (int, float)):
            return {pair: float(init) for pair in dest_pairs}
        missing = [p for p in dest_pairs if p not in init]
        if missing:
            raise ValueError(f"gradient-descent initial targets missing pairs {missing}")
        return {pair: float(init[pair]) for pair in dest_pairs}
    # fixed
    tg = cfg.targets
    if tg is None:
        if cfg.policy == "age-debt":
            raise ValueError("age-debt with fixed target mode needs targets")
        tg = 0.0  # policies that ignore debts; queues become cost accumulators
    if isinstance(tg, (int, float)):
        return {pair: float(tg) for pair in dest_pairs}
    missing = [p for p in dest_pairs if p not in tg]
    if missing:
        raise ValueError(f"targets missing pairs {missing}")
    return {pair: float(tg[pair]) for pair in dest_pairs}


def _gd_floor(cost_fns, gd):
    if gd.floor is None:
        return {pair: f(1) for pair, f in cost_fns.items()}
    if isinstance(gd.floor, (int, float)):
        return {pair: float(gd.floor) for pair in cost_fns}
    return dict(gd.floor)


def run(instance, cost_fns, cfg):
    """Simulate one run and return its metrics.

    Fully deterministic for fixed (instance, cost_fns, cfg): channel draws
    come from per-edge counter-based streams keyed by (seed, edge), and
    policy randomness from a separate stream keyed by seed.
    """
    tracked = instance.tracked_pairs()
    age = initial_age(tracked)
    buffer = initial_buffer(instance.flows)
    debt = initial_debt(instance)
    dest_pairs = list(debt.dest)

    targets = _resolve_targets(instance, cost_fns, cfg, dest_pairs)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _POLICY_RNG_TAG)))
    controller = _build_controller(instance, cost_fns, cfg, rng)
    # relay queues are read only by the exact-drift policy, whose evaluator
    # also holds their hop distances
    evaluator = getattr(controller, "evaluator", None)
    if evaluator is None or not cfg.use_intermediate_queues:
        debt.intermediate = {}
    channels = ChannelProcess(instance, cfg.seed)
    space = instance.action_space
    edge_idx = instance.edge_index

    gd = cfg.gradient_descent
    gd_floor = _gd_floor(cost_fns, gd) if cfg.target_mode == "gradient-descent" else None
    target_history = [dict(targets)] if cfg.target_mode == "gradient-descent" else None

    cost_sum = {pair: 0.0 for pair in dest_pairs}
    max_sum_debt = 0.0
    full_trace = cfg.trace_detail == "full"
    trace = [] if full_trace else None
    hists = {pair: {} for pair in dest_pairs} if full_trace else None

    T = cfg.horizon
    for t in range(T):
        if cfg.target_mode == "flow-control":
            targets = flow_control_update(debt.dest, cfg.flow_control)
        elif gd is not None and t > 0 and t % gd.epoch_length == 0:
            targets = gd_epoch_update(targets, debt.dest, gd, floor=gd_floor)
            target_history.append(dict(targets))
            for pair in debt.dest:
                debt.dest[pair] = 0.0
            for key in debt.intermediate:
                debt.intermediate[key] = 0.0

        action_idx = controller.decide(t, age, buffer, debt, targets)
        action = space[action_idx]

        bits = channels.slot(t)
        deliveries = []
        forwarded = set()  # (relay, flow) pairs that sent a held packet
        for (tx, rx, k) in action:
            if tx == k:
                t_g = t  # generate-at-will: stamp a fresh update now
                buffer[(tx, k)] = t
            else:
                # only sources' own stamps change before advance_age, so
                # this reads the relay's pre-slot buffer
                t_g = buffer.get((tx, k))
                if t_g is None:
                    continue  # nothing to forward; no-op on the wire
                forwarded.add((tx, k))
            if bits[edge_idx[canon_edge(tx, rx)]]:
                deliveries.append((k, rx, t_g))

        age_next = advance_age(age, buffer, deliveries, t)
        update_destination_debt(debt, cost_fns, age_next, targets)
        if debt.intermediate:
            update_intermediate_debt(debt, age, forwarded, evaluator.relay_hops[action_idx],
                                     targets, cost_fns, age_next)
        age = age_next

        sum_debt = 0.0
        for pair in dest_pairs:
            a = age[pair]
            cost_sum[pair] += cost_fns[pair](a)
            sum_debt += debt.dest[pair]
            if full_trace:
                h = hists[pair]
                h[a] = h.get(a, 0) + 1
                trace.append((t, pair, a, cost_fns[pair](a), debt.dest[pair],
                              targets[pair], action_idx))
        if sum_debt > max_sum_debt:
            max_sum_debt = sum_debt

        if (t & 4095) == 0 and max(age.values()) > cfg.runaway_age:
            raise RuntimeError("runaway instance: age exceeded the abort bound")

    per_pair_cost = {pair: cost_sum[pair] / T for pair in dest_pairs}
    return RunMetrics(
        horizon=T,
        seed=cfg.seed,
        per_pair_cost=per_pair_cost,
        sum_cost=math.fsum(per_pair_cost.values()),
        per_pair_debt_rate={pair: debt.dest[pair] / T for pair in dest_pairs},
        max_sum_debt=max_sum_debt,
        final_targets=dict(targets),
        target_history=target_history,
        age_histograms=hists,
        trace=trace,
    )


def stability_diagnostic(metrics, delta=None, targets=None):
    """Flag each pair stable (True) iff Q(T)/T < delta.

    delta defaults to max(0.01 * alpha, 0.1) per pair, with alpha taken from
    ``targets`` or the run's final targets.
    """
    if targets is None:
        targets = metrics.final_targets
    out = {}
    for pair, rate in metrics.per_pair_debt_rate.items():
        if delta is not None:
            d = delta
        else:
            d = max(0.01 * targets[pair], 0.1)
        out[pair] = rate < d
    return out


def export_trace(metrics, path):
    """Write a full-detail trace (one row per slot and pair) as CSV."""
    import csv

    if metrics.trace is None:
        raise ValueError("run was not recorded with trace_detail='full'")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "pair", "A", "B", "Q", "alpha", "action_index"])
        for (t, pair, a, b, q, alpha, idx) in metrics.trace:
            w.writerow([t, f"{pair[0]}-{pair[1]}", a, f"{b:.10g}",
                        f"{q:.10g}", f"{alpha:.10g}", idx])
