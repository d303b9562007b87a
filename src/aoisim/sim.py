"""Discrete-time simulation loop.

Slot order, fixed and relied on by the tests:

  1. target update (flow-control mode only, from current debts)
  2. policy decision (sees pre-slot ages, buffers, debts, targets)
  3. channel sampling (counter-based per-edge streams, policy-independent)
  4. packet movement: sources send fresh updates, relays forward the packet
     they held before the slot; a successful link m -> i delivers the
     sender's pre-slot age (0 from a source)
  5. age advance, min(A_i, A_m) + 1 per delivery, and buffer update
  6. destination debt update (uses post-slot ages and this slot's targets)
  7. intermediate debt update, exact age-debt only: case 1 for the relays
     that forwarded a held packet in step 4, with pre-slot ages and the
     chosen action's hop distances from the drift evaluator
  8. metrics accumulation

The state is each row's age and whether it holds a packet, in the row
layout of ``age.RowPlan``, which also lists each action's links and the
relay queues by row. The run keeps a table of each pair's costs, filled by
calling its cost function and grown only when the oldest age, which rises by
at most one per slot, could reach its end.

Gradient-descent target epochs sit outside the slot: every W slots the
targets move and all debt queues reset to zero, while ages carry over.

Randomized and constant runs at fixed targets with metrics only skip the
slot loop. Their actions never read state, so the whole action sequence
is known up front: a constant index, or the same uniforms from the policy
stream that the loop draws one slot at a time. This path alone keeps
buffer stamps (the slot that made each row's freshest packet) in place of
ages, as they make the run a max-plus recurrence over the slots (a source
carries the slot's own stamp over an active, successful link, a relay the
stamp it held the slot before), solved one channel block at a time by rounds
of ``np.maximum.accumulate`` until nothing changes, and every age is
t + 1 - stamp. Costs are the same calls on the same integer ages (one per
distinct age of a block), summed in slot order, and debts follow the same
update, so the metrics are the same bits as the loop's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .age import advance_age, row_plan, update_destination_debt, update_intermediate_debt
from .channels import _BLOCK, ChannelProcess
from .policies import (TIE_BREAKS, RandomizedPolicy, get_drift_evaluator, max_weight_action,
                       single_hop_age_debt_action)
from .targets import (FlowControlConfig, GradientDescentConfig,
                      flow_control_update, gd_epoch_update)

_POLICY_RNG_TAG = 0x90110EC

POLICIES = ("age-debt", "max-weight", "randomized", "constant", "dp-table")
TARGET_MODES = ("fixed", "flow-control", "gradient-descent")
AGE_DEBT_VARIANTS = ("auto", "exact")  # closed form on single-hop stars, or exact drift

# a run aborts once a tracked age passes this bound (checked every 4096th slot)
RUNAWAY_AGE = 2 ** 40


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

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name, ok in (("policy", POLICIES), ("target_mode", TARGET_MODES),
                         ("tie_break", TIE_BREAKS), ("trace_detail", ("metrics-only", "full"))):
            if getattr(self, name) not in ok:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")


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
    hub, one directed source->hub assignment per non-idle action, so no
    node relays), return its hub, and its sources, their actions and
    reliabilities in flow order, which is row order; else None."""
    hubs = {j for f in instance.flows for j in f.destinations}
    if len(hubs) != 1:
        return None
    hub = hubs.pop()
    action_of = {}
    for idx, action in enumerate(instance.action_space):
        if not action:
            continue
        (tx, rx, k), *rest = action
        if rest or (tx, rx) != (k, hub):
            return None
        action_of[k] = idx
    sources = [f.source for f in instance.flows]
    if set(action_of) != set(sources):
        return None
    return {
        "hub": hub,
        "sources": sources,
        "actions": [action_of[s] for s in sources],
        "probs": [instance.edge_prob(s, hub) for s in sources],
    }


def _policy(instance, cost_fns, cfg, rng, tables):
    """The run's policy as ``decide(age, held, debt, relay_debt, targets)``,
    from the pre-slot row state to the slot's action index. Star rules are
    looked up in this module's globals at each call, so a wrapper patched
    over them there sees every decision."""
    params = cfg.policy_params
    if cfg.policy == "randomized":
        pol = _randomized_policy(instance, params)
        return lambda age, held, debt, relay_debt, targets: pol.sample_index(rng)
    if cfg.policy == "constant":
        idx = _constant_action(instance, params)
        return lambda age, held, debt, relay_debt, targets: idx
    if cfg.policy == "dp-table":
        # the solution's axes are the rows, each age capped at a_cap
        sol, tracked = params["solution"], row_plan(instance).tracked
        if sol.pairs != tracked:
            raise ValueError(f"DP solution axes {sol.pairs} are not the tracked pairs {tracked}")
        a_cap, table = sol.a_cap, sol.policy.tolist()
        strides = [a_cap ** (len(tracked) - 1 - r) for r in range(len(tracked))]
        return (lambda age, held, debt, relay_debt, targets:
                table[sum((min(a, a_cap) - 1) * s for a, s in zip(age, strides))])
    if cfg.policy == "max-weight":
        star = star_structure(instance)
        if star is None:
            raise ValueError("max-weight policy needs a single-hop star instance")
        fns = [cost_fns[(s, star["hub"])] for s in star["sources"]]
        weights = [f.weight if getattr(f, "kind", None) == "linear" else 1.0 for f in fns]
        actions, probs = star["actions"], star["probs"]
        return (lambda age, held, debt, relay_debt, targets:
                actions[max_weight_action(age, probs, weights)])
    star = star_structure(instance) if _age_debt_variant(params) == "auto" else None
    if star is not None:
        actions, probs = star["actions"], star["probs"]
        # a star's rows are its sources
        return (lambda age, held, debt, relay_debt, targets:
                actions[single_hop_age_debt_action(age, debt, probs, tables)])
    evaluator, tie_break = get_drift_evaluator(instance), cfg.tie_break
    return lambda age, held, debt, relay_debt, targets: evaluator.decide(
        debt, relay_debt, age, held, targets, tables, tie_break, rng)[0]


def _age_debt_variant(params):
    variant = params.get("variant", "auto")
    if variant not in AGE_DEBT_VARIANTS:
        raise ValueError(f"unknown age-debt variant {variant!r}")
    return variant


def _randomized_policy(instance, params):
    pol = RandomizedPolicy(tuple(params["probabilities"]))
    if len(pol.probabilities) != len(instance.action_space):
        raise ValueError("randomized policy size does not match action space")
    return pol


def _constant_action(instance, params):
    idx, n = params.get("action_index"), len(instance.action_space)
    if not isinstance(idx, int) or not 0 <= idx < n:
        raise ValueError(f"constant policy needs an integer action_index below {n}, got {idx!r}")
    return idx


def _resolve_targets(cfg, dest_pairs):
    """Each destination pair's starting target. A per-pair table must name
    only ``dest_pairs``, all of them but in gradient descent's floor."""
    mode = cfg.target_mode
    if mode == "flow-control":
        if cfg.flow_control is None:
            raise ValueError("flow-control mode needs a FlowControlConfig")
        return {pair: 1.0 for pair in dest_pairs}
    if mode == "gradient-descent":
        gd = cfg.gradient_descent
        if gd is None:
            raise ValueError("gradient-descent mode needs a GradientDescentConfig")
        if isinstance(gd.floor, dict):
            _named_pairs(gd.floor, dest_pairs, "gradient-descent floor")
        tg, what = gd.initial, "gradient-descent initial targets"
    else:
        tg, what = cfg.targets, "targets"
        if tg is None:
            if cfg.policy == "age-debt":
                raise ValueError("age-debt with fixed targets needs 'targets'")
            tg = 0.0  # policies that ignore debts; queues become cost accumulators
    if isinstance(tg, (int, float)):
        return {pair: float(tg) for pair in dest_pairs}
    missing = [p for p in dest_pairs if p not in tg]
    if missing:
        raise ValueError(f"{what} missing pairs {missing}")
    _named_pairs(tg, dest_pairs, what)
    return {pair: float(tg[pair]) for pair in dest_pairs}


def _named_pairs(table, dest_pairs, what):
    if extra := [p for p in table if p not in dest_pairs]:
        raise ValueError(f"{what}: not destination pairs {extra}")


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
    if (cfg.policy in ("randomized", "constant") and cfg.target_mode == "fixed"
            and cfg.trace_detail == "metrics-only"):
        return _open_loop_run(instance, cost_fns, cfg)
    return _slot_loop(instance, cost_fns, cfg)


def _slot_loop(instance, cost_fns, cfg):
    """``run`` one slot at a time, for every kind of run."""
    plan = row_plan(instance)
    n_rows, dest_pairs, rows = plan.n_rows, plan.dest_pairs, plan.dest_rows
    age = [1] * n_rows
    held = [False] * n_rows
    debt = [0.0] * n_rows
    targets = _by_row(_resolve_targets(cfg, dest_pairs).values(), plan, 0.0)
    by_age = [array("d", [math.nan]) for _ in dest_pairs]  # per pair: index a holds f(a)
    tables = _by_row(by_age, plan, None)

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _POLICY_RNG_TAG)))
    decide = _policy(instance, cost_fns, cfg, rng, tables)
    # relay queues are read only by the exact-drift policy (an instance
    # with relays is never a star), whose evaluator holds their hop distances
    keep = cfg.policy == "age-debt" and cfg.use_intermediate_queues and bool(plan.relays)
    relay_hops = get_drift_evaluator(instance).relay_hops if keep else None
    relay_debt = [0.0 if keep else None] * len(plan.relays)
    channels = ChannelProcess(instance, cfg.seed, cfg.horizon)
    links = plan.action_links

    fc = cfg.flow_control if cfg.target_mode == "flow-control" else None
    gd = cfg.gradient_descent if cfg.target_mode == "gradient-descent" else None
    gd_floor = _gd_floor(cost_fns, gd) if gd is not None else None
    target_history = [_by_pair(targets, plan)] if gd is not None else None

    cost_sum = [0.0] * len(rows)
    max_sum_debt = 0.0
    full_trace = cfg.trace_detail == "full"
    trace = [] if full_trace else None
    hists = {pair: {} for pair in dest_pairs} if full_trace else None
    # a slot reads costs up to n + 1 ages past the oldest age: a + 1 for
    # next ages, a + h with h <= n for a forwarding relay
    margin = instance.node_count + 1
    grow_at = 0

    for t in range(cfg.horizon):
        if t == grow_at:
            top = max(age) + margin
            for pair, tab in zip(dest_pairs, by_age):
                tab.extend(map(cost_fns[pair], range(len(tab), 2 * top)))
            grow_at = t + top  # until then no age can pass 2 * top - margin
        if fc is not None:
            flow_control_update(debt, targets, rows, fc)
        elif gd is not None and t > 0 and t % gd.epoch_length == 0:
            target_history.append(gd_epoch_update(_by_pair(targets, plan), _by_pair(debt, plan),
                                                  gd, floor=gd_floor))
            targets = _by_row(target_history[-1].values(), plan, 0.0)
            debt = [0.0] * n_rows
            relay_debt = [0.0 if keep else None] * len(relay_debt)

        action_idx = decide(age, held, debt, relay_debt, targets)
        bits = channels.slot(t)
        # a source sends a fresh update (age 0); a relay that holds nothing
        # sends nothing, a no-op on the wire
        deliveries = [(r, 0 if m < 0 else age[m]) for (r, m, e) in links[action_idx]
                      if bits[e] and (m < 0 or held[m])]

        if keep:
            was_held = held[:]  # case 1 reads the buffers before this slot's deliveries
        age_next = advance_age(age, held, deliveries)
        priced = update_destination_debt(debt, tables, age_next, targets, rows)
        if keep:
            update_intermediate_debt(relay_debt, plan.relays, relay_hops[action_idx],
                                     age, was_held, tables, targets, priced)
        age = age_next

        sum_debt = 0.0
        for q in debt:  # relay rows hold 0.0, which adds nothing
            sum_debt += q
        if sum_debt > max_sum_debt:
            max_sum_debt = sum_debt
        cost_sum = list(map(add, cost_sum, priced))
        if full_trace:
            for pair, r, c in zip(dest_pairs, rows, priced):
                a = age[r]
                hists[pair][a] = hists[pair].get(a, 0) + 1
                trace.append((t, pair, a, c, debt[r], targets[r], action_idx))

        if (t & 4095) == 0 and max(age) > RUNAWAY_AGE:
            raise RuntimeError("runaway instance: age exceeded the abort bound")

    return _metrics(cfg, dest_pairs, cost_sum, [debt[r] for r in rows], max_sum_debt,
                    _by_pair(targets, plan), target_history=target_history,
                    age_histograms=hists, trace=trace)


def _metrics(cfg, dest_pairs, cost_sum, debt, max_sum_debt, targets, **extra):
    """A run's metrics from its per-pair cost sums and final debts, both in
    ``dest_pairs`` order."""
    T = cfg.horizon
    per_pair_cost = {pair: c / T for pair, c in zip(dest_pairs, cost_sum)}
    return RunMetrics(horizon=T, seed=cfg.seed, per_pair_cost=per_pair_cost,
                      sum_cost=math.fsum(per_pair_cost.values()),
                      per_pair_debt_rate={pair: q / T for pair, q in zip(dest_pairs, debt)},
                      max_sum_debt=max_sum_debt, final_targets=dict(targets), **extra)


def _by_pair(values, plan):
    """A row list's destination entries as a dict keyed by pair."""
    return {pair: values[r] for pair, r in zip(plan.dest_pairs, plan.dest_rows)}


def _by_row(values, plan, fill):
    """One value per destination pair as a row list, ``fill`` on relay rows."""
    out = [fill] * plan.n_rows
    for r, v in zip(plan.dest_rows, values):
        out[r] = v
    return out


def _open_loop_blocks(instance, seed, horizon, randomized):
    """Per channel block of the run: the delivery bits of every open-loop
    link (link x slot) and, for a randomized policy, the block's uniforms
    from the policy stream (a block draw equals as many scalar draws)."""
    edges = row_plan(instance).edges
    channels = ChannelProcess(instance, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _POLICY_RNG_TAG)))
    for start in range(0, horizon, _BLOCK):
        stop = min(start + _BLOCK, horizon)
        yield (channels._rows(start, stop)[:, edges].T,
               rng.random(stop - start) if randomized else None)


def _running_sum(first, values):
    """first + values[0], then + values[1], ...: the order of a ``+=`` loop
    (``np.add.accumulate`` is sequential, unlike a reduction)."""
    return np.add.accumulate(np.concatenate(([first], values)))[1:]


def _open_loop_run(instance, cost_fns, cfg, blocks=None):
    """``run`` of a randomized or constant policy at fixed targets, metrics
    only, one channel block at a time, over buffer stamps rather than ages
    (see the module docstring). ``blocks`` are the run's
    ``_open_loop_blocks`` if already drawn."""
    plan = row_plan(instance)
    dest_pairs = plan.dest_pairs
    targets = _resolve_targets(cfg, dest_pairs)
    randomized = cfg.policy == "randomized"
    if randomized:
        cum = np.asarray(_randomized_policy(instance, cfg.policy_params)._cum)
    else:
        idx = _constant_action(instance, cfg.policy_params)
    if blocks is None:
        blocks = _open_loop_blocks(instance, cfg.seed, cfg.horizon, randomized)

    before = np.full(plan.n_rows, -1, dtype=np.int64)  # stamps before the block
    cost_sum = [0.0] * len(dest_pairs)
    debt = [0.0] * len(dest_pairs)
    max_sum_debt = 0.0
    start = 0
    for bits, uniforms in blocks:
        n_slots = bits.shape[1]
        if randomized:
            actions = np.minimum(np.searchsorted(cum, uniforms, side="right"), len(cum) - 1)
        else:
            actions = np.full(n_slots, idx)
        block = plan.stamps(before, start, plan.active[actions].T & bits)
        before = block[:, -1]
        t1 = np.arange(start + 1, start + n_slots + 1)
        # the loop's runaway check of every tracked age, every 4096th slot: the
        # first slot of each channel block of _BLOCK = 4096 slots
        if (t1[0] - block[:, 0]).max() > RUNAWAY_AGE:
            raise RuntimeError("runaway instance: age exceeded the abort bound")
        ages = t1 - block[plan.dest_rows]
        debts = np.empty(ages.shape)
        for p, pair in enumerate(dest_pairs):
            distinct, inverse = np.unique(ages[p], return_inverse=True)
            f = cost_fns[pair]
            priced = np.array([f(a) for a in distinct.tolist()], dtype=float)
            costs = priced[inverse]
            cost_sum[p] = float(_running_sum(cost_sum[p], costs)[-1])
            alpha = targets[pair]
            if alpha == 0.0 and priced.min() >= 0.0:
                # [Q + c - 0]^+ never clips, so the debt is a running sum too
                debts[p] = _running_sum(debt[p], costs)
            else:
                q = debt[p]
                lindley = []
                for c in costs.tolist():
                    q = q + c - alpha
                    q = q if q > 0.0 else 0.0
                    lindley.append(q)
                debts[p] = lindley
            debt[p] = float(debts[p, -1])
        top = float(np.add.accumulate(debts, axis=0)[-1].max())
        if top > max_sum_debt:
            max_sum_debt = top
        start += n_slots

    return _metrics(cfg, dest_pairs, cost_sum, debt, max_sum_debt, targets)


def stability_diagnostic(metrics, delta=None, targets=None):
    """Flag each pair stable (True) iff Q(T)/T < delta.

    delta defaults to max(0.01 * alpha, 0.1) per pair, with alpha taken from
    ``targets`` or the run's final targets.
    """
    if targets is None:
        targets = metrics.final_targets
    return {pair: rate < (delta if delta is not None else max(0.01 * targets[pair], 0.1))
            for pair, rate in metrics.per_pair_debt_rate.items()}


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
