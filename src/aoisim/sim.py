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
     chosen action's hop distances from the row plan
  8. metrics accumulation

The state is each row's age and whether it holds a packet, in the row
layout of ``age.RowPlan``, which also lists each action's links, the relay
queues by row and each action's relay hop distances. The run keeps a table
of each pair's costs, filled by calling its cost function and grown only
when the oldest age, which rises by at most one per slot, could reach its
end.

Gradient-descent target epochs sit outside the slot: every W slots the
targets move and all debt queues reset to zero, while ages carry over.

Every closed-loop run executes one generated function, ``slots``, whose
Python text ``_loop_source`` writes for the instance and the run's shape:
the policy kind, the target mode, whether relay queues are kept, and trace
detail. It keeps the slot order above and unrolls each per-row phase over
the instance's rows, with row constants as literals and the star scores
and case-1 charge from the templates in ``policies``. Debts, targets and
cost sums are locals unless the drift evaluator's compiled ``decide``,
which ``slots`` calls once per slot with its row lists, reads them. On a
star, every other kind keeps the ages in locals too, writes no held flags
(no star kind reads them), unrolls each action's one delivery, and reads
the closed-form gain and the max-weight score from per-run tables by age,
grown with the cost tables; elsewhere ages and held flags stay row lists,
and deliveries walk ``RowPlan.action_links``. Each slot's channel bits
come with the slot, in slot order, from ``ChannelProcess.bits``; they
depend on nothing the slot does. So do a randomized or constant policy's
actions: the inverse CDF of uniforms that the policy stream draws one
channel block at a time (a block draw equals as many scalar draws), and a
constant policy is the point mass at its index. The text performs the
rules' float operations in their order, so runs keep their bits. Code is
compiled once per source text, as the drift evaluator's is, and each loop
is kept on the instance by shape; an instance pickles as data only, and a
copy writes and compiles its own loops on first use.

Randomized and constant runs at fixed targets with metrics only skip the
slot loop. Their actions never read state, so the whole action sequence
is known up front, and this path differs from the loop only in its state:
buffer stamps (the slot that made each row's freshest packet) in place of
ages, as they make the run a max-plus recurrence over the slots (a source
carries the slot's own stamp over an active, successful link, a relay the
stamp it held the slot before), solved one channel block at a time by rounds
of ``np.maximum.accumulate`` until nothing changes, and every age is
t + 1 - stamp. Actions, cost tables and the runaway check at each block's
first slot are the loop's own; costs are summed in slot order and debts
follow the same update, so the metrics are the same bits as the loop's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .age import row_plan
from .channels import _BLOCK, ChannelProcess
from .config import is_int
from .policies import (_CASE1_CHARGE, _MAX_WEIGHT_SCORE, _STAR_GAIN, _STAR_SCORE, TIE_BREAKS,
                       RandomizedPolicy, _actions, _compiled, _indent, get_drift_evaluator)
from .targets import FlowControlConfig, GradientDescentConfig, gd_epoch_update

_POLICY_RNG_TAG = 0x90110EC

POLICIES = ("age-debt", "max-weight", "randomized", "constant", "dp-table")
TARGET_MODES = ("fixed", "flow-control", "gradient-descent")
AGE_DEBT_VARIANTS = ("auto", "exact")  # closed form on single-hop stars, or exact drift

# a run aborts once a tracked age passes this bound (checked each channel block)
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
        if not is_int(self.horizon) or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        # channel streams key on the seed's low 64 bits
        if not is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
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


def _policy(instance, cost_fns, cfg, rng):
    """The run's decision rule as (kind, what the slot loop reads for it):
    "star" (the closed form, written from the instance), "max-weight"
    (each source's p * w), "dp-table" (a_cap and the table), "exact" (the
    drift evaluator's compiled ``decide``, which scores every action and
    breaks ties in one call, with the tie-break and stream) or "pick" (the
    actions in slot order, drawn from ``rng`` one channel block at a time).
    Raises ``ValueError`` for a policy that does not fit the instance."""
    params = cfg.policy_params
    if cfg.policy in ("randomized", "constant"):
        cum = _action_cdf(instance, cfg)
        return "pick", chain.from_iterable(_actions(cum, u).tolist()
                                           for u in _uniforms(rng, cfg.horizon))
    if cfg.policy == "dp-table":
        # the solution's axes are the rows, each age capped at a_cap
        sol, tracked = params["solution"], row_plan(instance).tracked
        if sol.pairs != tracked:
            raise ValueError(f"DP solution axes {sol.pairs} are not the tracked pairs {tracked}")
        if sol.actions != list(instance.action_space):
            raise ValueError(f"DP solution's {len(sol.actions)} actions are not the "
                             f"instance's {len(instance.action_space)}")
        return "dp-table", (sol.a_cap, sol.policy.tolist())
    if cfg.policy == "max-weight":
        star = star_structure(instance)
        if star is None:
            raise ValueError("max-weight policy needs a single-hop star instance")
        fns = [cost_fns[(s, star["hub"])] for s in star["sources"]]
        weights = [f.weight if getattr(f, "kind", None) == "linear" else 1.0 for f in fns]
        return "max-weight", [p * w for p, w in zip(star["probs"], weights)]
    if _age_debt_variant(params) == "auto" and star_structure(instance) is not None:
        return "star", None
    return "exact", (get_drift_evaluator(instance).decide, cfg.tie_break, rng)


def _age_debt_variant(params):
    variant = params.get("variant", "auto")
    if variant not in AGE_DEBT_VARIANTS:
        raise ValueError(f"unknown age-debt variant {variant!r}")
    return variant


def _action_cdf(instance, cfg):
    """The cumulative action distribution of a randomized or constant
    policy. A constant policy is the point mass at its index, whose inverse
    CDF returns that index for every draw in [0, 1)."""
    params, n = cfg.policy_params, len(instance.action_space)
    if cfg.policy == "randomized":
        pol = RandomizedPolicy(tuple(params["probabilities"]))
        if len(pol.probabilities) != n:
            raise ValueError("randomized policy size does not match action space")
        return pol._cum
    idx = params.get("action_index")
    if not is_int(idx) or not 0 <= idx < n:
        raise ValueError(f"constant policy needs an integer action_index below {n}, got {idx!r}")
    return (np.arange(n) >= idx).astype(float)


def _policy_rng(seed):
    """The run's policy stream, apart from its channel streams."""
    return np.random.default_rng(np.random.SeedSequence((seed, _POLICY_RNG_TAG)))


def _uniforms(rng, horizon):
    """Uniform draws of ``rng`` for slots 0..horizon-1, one array per channel
    block; a block draw equals as many scalar draws."""
    for start in range(0, horizon, _BLOCK):
        yield rng.random(min(_BLOCK, horizon - start))


def _resolve_targets(cfg, dest_pairs):
    """Each destination pair's starting target. A per-pair table must name
    only ``dest_pairs``, all of them but in gradient descent's floor, and
    every value, floor included, must be finite."""
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
            _finite(gd.floor, "gradient-descent floor")
        elif gd.floor is not None:
            _finite(dict.fromkeys(dest_pairs, gd.floor), "gradient-descent floor")
        tg, what = gd.initial, "gradient-descent initial targets"
    else:
        tg, what = cfg.targets, "targets"
        if tg is None:
            if cfg.policy == "age-debt":
                raise ValueError("age-debt with fixed targets needs 'targets'")
            tg = 0.0  # policies that ignore debts; queues become cost accumulators
    if isinstance(tg, (int, float)):
        tg = dict.fromkeys(dest_pairs, tg)
    else:
        missing = [p for p in dest_pairs if p not in tg]
        if missing:
            raise ValueError(f"{what} missing pairs {missing}")
        _named_pairs(tg, dest_pairs, what)
    return _finite({pair: tg[pair] for pair in dest_pairs}, what)


def _named_pairs(table, dest_pairs, what):
    if extra := [p for p in table if p not in dest_pairs]:
        raise ValueError(f"{what}: not destination pairs {extra}")


def _finite(table, what):
    """``table``'s values as floats, each checked to be finite."""
    out = {}
    for pair, v in table.items():
        try:
            out[pair] = float(v)
        except OverflowError:  # an int past the float range
            out[pair] = math.inf
        if not math.isfinite(out[pair]):
            raise ValueError(f"{what}: non-finite value {out[pair]!r} for pair {pair}")
    return out


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
    """``run`` one slot at a time, for every kind of run, by the instance's
    compiled loop for the run's shape."""
    plan = row_plan(instance)
    dest_pairs = plan.dest_pairs
    targets = _by_row(_resolve_targets(cfg, dest_pairs).values(), plan, 0.0)
    kind, rule = _policy(instance, cost_fns, cfg, _policy_rng(cfg.seed))
    # relay queues are read only by the exact-drift policy (an instance
    # with relays is never a star)
    keep = cfg.policy == "age-debt" and cfg.use_intermediate_queues and bool(plan.relays)
    full = cfg.trace_detail == "full"
    slots = _loop(instance, (kind, cfg.target_mode, keep, full))
    by_age, grow = _cost_tables([cost_fns[pair] for pair in dest_pairs])
    history = [_by_pair(targets, plan)] if cfg.target_mode == "gradient-descent" else None
    gd = cfg.gradient_descent
    floor = _gd_floor(cost_fns, gd) if history is not None else None

    def epoch(debts):
        """The next epoch's targets, in pair order, from the debts at the end of this one."""
        history.append(gd_epoch_update(history[-1], dict(zip(dest_pairs, debts)), gd,
                                       floor=floor))
        return list(history[-1].values())

    trace, hists = ([], {pair: {} for pair in dest_pairs}) if full else (None, None)
    debt, cost_sum, max_sum_debt, final = slots(
        cfg.horizon, age=[1] * plan.n_rows, held=[False] * plan.n_rows,
        debt=[0.0] * plan.n_rows, relay_debt=[0.0 if keep else None] * len(plan.relays),
        targets=targets, tables=_by_row(by_age, plan, None), rule=rule,
        channel=ChannelProcess(instance, cfg.seed).bits(cfg.horizon), links=plan.action_links,
        hops=plan.relay_hops if keep else None, grow=grow,
        targeting=cfg.flow_control if history is None else gd, epoch=epoch, runaway=RUNAWAY_AGE,
        trace=trace, hists=list(hists.values()) if full else None)
    return _metrics(cfg, dest_pairs, cost_sum, debt, max_sum_debt, dict(zip(dest_pairs, final)),
                    target_history=history, age_histograms=hists, trace=trace)


def _cost_tables(fns):
    """One table per cost function of ``fns``, index a holding f(a), and
    ``grow(end)``, which prices every table up to age end - 1. Keep no
    buffer view of a table: ``extend`` raises ``BufferError`` while one is
    alive."""
    tables = [array("d", [math.nan]) for _ in fns]

    def grow(end):
        for f, tab in zip(fns, tables):
            tab.extend(map(f, range(len(tab), end)))

    return tables, grow


def _loop(instance, shape):
    """The instance's compiled ``slots`` for a run ``shape`` (policy kind,
    target mode, relay queues kept, full trace), built on first use and
    kept on the instance."""
    loops = instance._slot_loops
    if shape not in loops:
        names = {}
        for code in _compiled(_loop_source(instance, *shape)):
            exec(code, names)
        loops[shape] = names["slots"]
    return loops[shape]


def _loop_source(instance, kind, mode, keep, full):
    """Python text of ``slots``, which runs every slot of one run in the
    order of the module docstring, each per-row phase unrolled over the
    instance's rows with their constants as literals; on a star, but for
    the exact kind, each row's age is a local ``a{r}``, read from ``age``
    before the first slot. It performs the float operations of the row
    rules in their order, so its runs are the same bits as the rules
    applied one call at a time (``tests/row_reference.py``)."""
    plan = row_plan(instance)
    rows, relays = plan.dest_rows, plan.relays
    # the drift evaluator reads debts and targets as row lists; every other
    # policy leaves them to locals, and on a star its ages too, as no star
    # kind reads held flags and each action delivers at most once
    lists = kind == "exact"
    star = None if lists else star_structure(instance)
    q = (lambda r: f"debt[{r}]") if lists else (lambda r: f"q{r}")
    al = (lambda r: f"targets[{r}]") if lists else (lambda r: f"al{r}")
    ag = (lambda r: f"age[{r}]") if star is None else (lambda r: f"a{r}")
    oldest = ("max(age)" if star is None else
              f"max({', '.join(map(ag, rows))})" if len(rows) > 1 else ag(rows[0]))
    head = [f"tab{r} = tables[{r}]" for r in rows] + [f"s{r} = 0.0" for r in rows]
    if not lists:
        head += [f"q{r} = debt[{r}]" for r in rows] + [f"al{r} = targets[{r}]" for r in rows]
    if star is not None:
        head += [f"a{r} = age[{r}]" for r in rows]
    if full:
        head += [f"hist{r} = hists[{i}]" for i, r in enumerate(rows)]
    head += ["max_sum_debt = 0.0", "grow_at = 0"]

    # a slot reads costs up to n + 1 ages past the oldest age (a + 1 for next
    # ages, a + h with h <= n for a forwarding relay), and ages rise by at
    # most one per slot: tables up to 2 * top serve the next top slots
    body = ["if t == grow_at:", f"    top = {oldest} + {instance.node_count + 1}",
            "    grow(2 * top)"]
    if kind == "star":  # each source's gain by age, to the end of its table
        head += [f"d{r} = []" for r in rows]
        for r in rows:
            body += [f"    for a in range(len(d{r}), len(tab{r}) - 1):",
                     f"        d{r}.append({_STAR_GAIN.format(tab=f'tab{r}', a='a')})"]
    elif kind == "max-weight":  # each source's score by age, up to 2 * top
        head += [f"pw{r} = rule[{r}]" for r in rows] + [f"m{r} = []" for r in rows]
        for r in rows:
            body += [f"    for a in range(len(m{r}), 2 * top):",
                     f"        m{r}.append({_MAX_WEIGHT_SCORE.format(pw=f'pw{r}', a='a')})"]
    body.append("    grow_at = t + top")
    if mode == "flow-control":
        head.append("v, high = targeting.V, targeting.alpha_max")
        body += [f"{al(r)} = high if {q(r)} > v else 1.0" for r in rows]
    elif mode == "gradient-descent":
        head.append("epoch_at = targeting.epoch_length")
        body += ["if t == epoch_at:", "    epoch_at += targeting.epoch_length",
                 f"    new = epoch([{', '.join(q(r) for r in rows)}])",
                 *(f"    {al(r)} = new[{i}]" for i, r in enumerate(rows)),
                 *(f"    {q(r)} = 0.0" for r in rows)]
        if keep:
            body.append(f"    relay_debt[:] = [0.0] * {len(relays)}")

    if kind in ("star", "max-weight"):
        # a star's rows are its sources; the first maximum wins
        actions, probs = star["actions"], star["probs"]
        if kind == "star":
            scores = [_STAR_SCORE.format(p=repr(p), q=q(r), d=f"d{r}[a{r}]")
                      for r, p in enumerate(probs)]
        else:
            scores = [f"m{r}[a{r}]" for r in rows]
        body += [f"best = {scores[0]}", f"action = {actions[0]}"]
        for score, a in zip(scores[1:], actions[1:]):
            body += [f"x = {score}", "if x > best:", "    best = x", f"    action = {a}"]
    elif kind == "dp-table":
        n = plan.n_rows
        head += ["cap, table = rule", *(f"stride{r} = cap ** {n - 1 - r}" for r in range(n))]
        body.append("action = table[" + " + ".join(
            f"(({ag(r)} if {ag(r)} < cap else cap) - 1) * stride{r}" for r in range(n)) + "]")
    elif kind == "exact":
        head.append("decide, tie_break, rng = rule")
        body.append("action = decide(debt, relay_debt, age, held, targets, tables, tie_break, "
                    "rng)[0]")

    if keep:
        # case 1 reads the ages and buffers from before this slot's deliveries
        body.append("hs = hops[action]")
        for i, (_, rd, ri) in enumerate(relays):
            charge = _CASE1_CHARGE.format(tab=f"tab{rd}", a=f"age[{rd}]", ri=ri, h="h")
            body += [f"h = hs[{i}]", f"x{i} = {charge} if h is not None and held[{ri}] else None"]
    # a source sends a fresh update (age 0); a relay that holds nothing
    # sends nothing, a no-op on the wire
    if star is not None:  # a star action's one link is from its source
        body += [f"a{r} += 1" for r in rows]
        branch = "if"
        for action, links in enumerate(plan.action_links):
            for (r, _, e) in links:
                body += [f"{branch} action == {action}:", f"    if bits[{e}]:", f"        a{r} = 1"]
                branch = "elif"
    elif plan.relay_links.size:
        body += ["sent = [(r, 0 if m < 0 else age[m]) for (r, m, e) in links[action]",
                 "        if bits[e] and (m < 0 or held[m])]",
                 *(f"age[{r}] += 1" for r in range(plan.n_rows)),
                 "for (r, g) in sent:", "    held[r] = True", "    g += 1",
                 "    if g < age[r]:", "        age[r] = g"]
    else:  # every sender is a source, so a delivery sets the age to 1
        body += [*(f"age[{r}] += 1" for r in range(plan.n_rows)),
                 "for (r, m, e) in links[action]:", "    if bits[e]:",
                 "        held[r] = True", "        age[r] = 1"]
    for r in rows:
        body += [f"c{r} = tab{r}[{ag(r)}]", f"nq = {q(r)} + c{r} - {al(r)}",
                 f"{q(r)} = nq if nq > 0.0 else 0.0"]
    for i, (_, rd, _) in enumerate(relays if keep else ()):
        body += [f"nq = relay_debt[{i}] + (c{rd} if x{i} is None else x{i}) - {al(rd)}",
                 f"relay_debt[{i}] = nq if nq > 0.0 else 0.0"]
    # relay rows hold 0.0, which adds nothing: the sum runs in row order
    body += ["sum_debt = 0.0 + " + " + ".join(q(r) for r in sorted(rows)),
             "if sum_debt > max_sum_debt:", "    max_sum_debt = sum_debt",
             *(f"s{r} += c{r}" for r in rows)]
    if full:
        for pair, r in zip(plan.dest_pairs, rows):
            a = "a" if star is None else ag(r)
            if star is None:
                body.append(f"a = age[{r}]")
            body += [f"hist{r}[{a}] = hist{r}.get({a}, 0) + 1",
                     f"trace.append((t, {pair!r}, {a}, c{r}, {q(r)}, {al(r)}, action))"]
    # the first slot of each channel block, as the open-loop path checks
    body += [f"if (t & {_BLOCK - 1}) == 0 and {oldest} > runaway:",
             "    raise RuntimeError(\"runaway instance: age exceeded the abort bound\")"]

    # a pick policy's actions come in slot order beside the channel bits
    slot, rule = ("bits, action", ", rule") if kind == "pick" else ("bits", "")
    tail = (f"return [{', '.join(map(q, rows))}], [{', '.join(f's{r}' for r in rows)}], "
            f"max_sum_debt, [{', '.join(map(al, rows))}]")
    return "\n".join([
        "def slots(horizon, age, held, debt, relay_debt, targets, tables, rule, channel, links, "
        "hops, grow, targeting, epoch, runaway, trace, hists):",
        *_indent(head), f"    for t, {slot} in zip(range(horizon), channel{rule}):",
        *_indent(_indent(body)),
        *_indent([tail])]) + "\n"


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


def _open_loop_blocks(instance, seed, horizon):
    """Per channel block of the run: the delivery bits of every open-loop
    link (link x slot) and the block's uniforms from the policy stream."""
    edges = row_plan(instance).edges
    channels = ChannelProcess(instance, seed)
    for start, uniforms in zip(range(0, horizon, _BLOCK), _uniforms(_policy_rng(seed), horizon)):
        yield channels._rows(start, start + len(uniforms))[:, edges].T, uniforms


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
    cum = _action_cdf(instance, cfg)
    if blocks is None:
        blocks = _open_loop_blocks(instance, cfg.seed, cfg.horizon)
    tables, grow = _cost_tables([cost_fns[pair] for pair in dest_pairs])

    before = np.full(plan.n_rows, -1, dtype=np.int64)  # stamps before the block
    cost_sum = [0.0] * len(dest_pairs)
    debt = [0.0] * len(dest_pairs)
    max_sum_debt = 0.0
    start = 0
    for bits, uniforms in blocks:
        n_slots = bits.shape[1]
        block = plan.stamps(before, start, plan.active[_actions(cum, uniforms)].T & bits)
        before = block[:, -1]
        t1 = np.arange(start + 1, start + n_slots + 1)
        if (t1[0] - block[:, 0]).max() > RUNAWAY_AGE:
            raise RuntimeError("runaway instance: age exceeded the abort bound")
        ages = t1 - block[plan.dest_rows]
        grow(int(ages.max()) + 1)
        debts = np.empty(ages.shape)
        for p, (tab, alpha) in enumerate(zip(tables, targets.values())):
            costs = np.frombuffer(tab)[ages[p]]  # a copy: no view outlives the line
            cost_sum[p] = float(_running_sum(cost_sum[p], costs)[-1])
            if alpha == 0.0 and costs.min() >= 0.0:
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


def stability_diagnostic(metrics):
    """Flag each pair stable (True) iff Q(T)/T < max(0.01 * alpha, 0.1),
    alpha being the pair's final target."""
    return {pair: rate < max(0.01 * metrics.final_targets[pair], 0.1)
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
