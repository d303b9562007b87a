"""The slot loop on dict state, kept as the reference that ``sim.run``'s
row-indexed loop is compared against.

Ages, buffers and debts are dicts keyed by (flow, node) and (flow, node,
relay) tuples, every cost is a ``CostFunction`` call, and exact age-debt
scores actions with the dict form of the drift evaluator. Relay hop
distances come from its own ``restricted_hop_distance``, one BFS per first
hop, not from the row plan. This is the engine that recorded
``tests/data/golden_trajectories.json``, trimmed of its docstrings; the slot
order is the one in ``sim``'s module docstring.
"""

import bisect
import math

import numpy as np

from aoisim import DebtState, RunMetrics, sim
from aoisim.channels import ChannelProcess
from aoisim.network import bfs_distances, canon_edge
from aoisim.policies import RandomizedPolicy
from aoisim.sim import _POLICY_RNG_TAG, _gd_floor, _resolve_targets, star_structure
from aoisim.targets import gd_epoch_update
from row_reference import max_weight_action


# ---------------------------------------------------------------- state

def initial_age(tracked_pairs):
    """Everyone starts one slot old; the post-delivery minimum."""
    return {pair: 1 for pair in tracked_pairs}


def initial_buffer(flows):
    """Sources hold a (never transmitted) packet stamped just before t=0."""
    return {(f.source, f.source): -1 for f in flows}


def initial_debt(instance):
    pairs = instance.dest_pairs()
    relays = {f.source: instance.relays(f) for f in instance.flows}
    return DebtState(dest={pair: 0.0 for pair in pairs},
                     intermediate={(k, j, i): 0.0 for (k, j) in pairs for i in relays[k]})


# ---------------------------------------------------------------- phases

def advance_age(age, buffer, deliveries, t):
    best = {}
    for (k, j, t_g) in deliveries:
        cur = best.get((k, j))
        if cur is None or t_g > cur:
            best[(k, j)] = t_g
    nxt = {}
    for pair, a in age.items():
        t_g = best.get(pair)
        nxt[pair] = a + 1 if t_g is None else min(a, t - t_g) + 1
    for (k, j), t_g in best.items():
        if buffer.get((j, k), -(10 ** 18)) < t_g:
            buffer[(j, k)] = t_g
    return nxt


def update_destination_debt(debt, cost_fns, age_next, targets):
    dest = debt.dest
    priced = {}
    for pair in dest:
        c = priced[pair] = cost_fns[pair](age_next[pair])
        q = dest[pair] + c - targets[pair]
        dest[pair] = q if q > 0.0 else 0.0
    return priced


def update_intermediate_debt(debt, age, forwarded, hops, targets, cost_fns, priced):
    for (k, j, i), q in debt.intermediate.items():
        if (i, k) in forwarded:
            term = cost_fns[(k, j)](min(age[(k, i)], age[(k, j)]) + hops[(k, j, i)])
        else:
            term = priced[(k, j)]
        nq = q + term - targets[(k, j)]
        debt.intermediate[(k, j, i)] = nq if nq > 0.0 else 0.0


def restricted_hop_distance(adjacency, i, j, first_hops):
    """Fewest hops from i to j when the first hop must use an edge in
    ``first_hops`` (directed edges out of i); later hops are unrestricted.

    Walks may revisit nodes, so the answer is 1 + the plain hop distance from
    the best allowed first-hop head. Returns None when no such walk exists.
    """
    best = None
    for (tx, rx) in first_hops:
        if tx != i:
            raise ValueError(f"first-hop edge ({tx},{rx}) does not leave node {i}")
        if rx == j:
            return 1
        d = bfs_distances(adjacency, rx).get(j)
        if d is not None and (best is None or d + 1 < best):
            best = d + 1
    return best


def flow_control_update(debt_now, cfg):
    return {pair: (cfg.alpha_max if q > cfg.V else 1.0) for pair, q in debt_now.items()}


# ---------------------------------------------------------------- exact drift

class DictDriftEvaluator:
    def __init__(self, instance):
        tracked = instance.tracked_pairs()
        tracked_set = set(tracked)
        dest_pairs = instance.dest_pairs()
        relays = {f.source: instance.relays(f) for f in instance.flows}
        self.dist_keys = []
        dist_ids = {}

        def dist_id(pair, links):
            key = (pair, links.get(pair, ()))
            if key not in dist_ids:
                dist_ids[key] = len(self.dist_keys)
                self.dist_keys.append(key)
            return dist_ids[key]

        self.blocks = []
        block_start = {}
        n_terms = 0
        action_links = []
        index = []
        self.relay_hops = []
        for action in instance.action_space:
            links, fwd = {}, {}
            for (tx, rx, k) in action:
                if (k, rx) in tracked_set:
                    links.setdefault((k, rx), []).append((tx, instance.edge_prob(tx, rx)))
                fwd.setdefault((tx, k), []).append((tx, rx))
            links = {pair: tuple(v) for pair, v in links.items()}
            action_links.append(links)
            col = []
            hops = {}
            for pair in dest_pairs:
                k, j = pair
                relay_h = []
                for i in relays[k]:
                    L = fwd.get((i, k))
                    h = None
                    if L:
                        h = hops[(k, j, i)] = restricted_hop_distance(
                            instance.adjacency, i, j, L)
                    relay_h.append((i, h))
                block = (pair, dist_id(pair, links), tuple(relay_h))
                if block not in block_start:
                    self.blocks.append(block)
                    block_start[block] = n_terms
                    n_terms += 1 + len(relay_h)
                start = block_start[block]
                col.extend(range(start, start + 1 + len(relay_h)))
            index.append(col)
            self.relay_hops.append(hops)
        self.index = np.array(index, dtype=np.intp).T.copy()
        self.n_scored = len(self.dist_keys)
        self.action_dists = [[dist_id(pair, links) for pair in tracked]
                             for links in action_links]

    @staticmethod
    def next_age_dist(key, age, buffer):
        pair, links = key
        k, _ = pair
        a_now = age[pair]
        cands = []
        for (m, p) in links:
            if m == k:
                cands.append((0, p))
            elif (m, k) in buffer and (k, m) in age:
                cands.append((age[(k, m)], p))
        if not cands:
            return ((a_now + 1, 1.0),)
        cands.sort()
        out = []
        stay = 1.0
        for (g, p) in cands:
            if g >= a_now:
                break
            out.append((min(a_now, g) + 1, stay * p))
            stay *= 1.0 - p
        out.append((a_now + 1, stay))
        merged = {}
        for v, p in out:
            merged[v] = merged.get(v, 0.0) + p
        return tuple(sorted(merged.items()))

    def score(self, debt, age, buffer, targets, cost_fns):
        dists = [self.next_age_dist(key, age, buffer)
                 for key in self.dist_keys[:self.n_scored]]
        terms = []
        add = terms.append
        intermediate = debt.intermediate
        for (pair, d, relay_h) in self.blocks:
            k, j = pair
            f = cost_fns[pair]
            alpha = targets[pair]
            dist = dists[d]
            q = debt.dest[pair]
            exp_sq = 0.0
            for (a_next, p) in dist:
                nq = q + f(a_next) - alpha
                if nq > 0.0:
                    exp_sq += p * nq * nq
            add(exp_sq - q * q)
            for (i, h) in relay_h:
                qi = intermediate.get((k, j, i))
                if qi is None:
                    add(0.0)
                elif h is not None and (i, k) in buffer:
                    nq = qi + f(min(age[(k, i)], age[pair]) + h) - alpha
                    add((nq * nq if nq > 0.0 else 0.0) - qi * qi)
                else:
                    exp_sq = 0.0
                    for (a_next, p) in dist:
                        nq = qi + f(a_next) - alpha
                        if nq > 0.0:
                            exp_sq += p * nq * nq
                    add(exp_sq - qi * qi)
        return np.add.accumulate(np.array(terms)[self.index], axis=0)[-1].tolist(), dists

    def expected_age_sum(self, action_idx, dists):
        total = 0.0
        for d in self.action_dists[action_idx]:
            for (a_next, p) in dists[d]:
                total += p * a_next
        return total

    def decide(self, debt, age, buffer, targets, cost_fns, tie_break, rng):
        scores, dists = self.score(debt, age, buffer, targets, cost_fns)
        best = min(scores)
        ties = [i for i, s in enumerate(scores) if s == best]
        if len(ties) == 1 or tie_break == "first":
            return ties[0]
        if tie_break == "last":
            return ties[-1]
        if tie_break == "random":
            return ties[int(rng.integers(len(ties)))]
        dists += [self.next_age_dist(key, age, buffer) for key in self.dist_keys[len(dists):]]
        return min((self.expected_age_sum(i, dists), i) for i in ties)[1]


# ---------------------------------------------------------------- controllers

def closed_form_position(ages, debts, reliabilities, cost_fns):
    best_i = 0
    best_s = None
    for i, (a, q, p, f) in enumerate(zip(ages, debts, reliabilities, cost_fns)):
        s = p * q * (f(a + 1) - f(1))
        if best_s is None or s > best_s:
            best_s = s
            best_i = i
    return best_i


class _AgeDebt:
    def __init__(self, instance, cost_fns, cfg, rng):
        self.cost_fns = cost_fns
        self.tie_break = cfg.tie_break
        self.rng = rng
        variant = cfg.policy_params.get("variant", "auto")
        self.star = star_structure(instance) if variant == "auto" else None
        self.evaluator = DictDriftEvaluator(instance) if self.star is None else None

    def decide(self, t, age, buffer, debt, targets):
        if self.star is not None:
            hub = self.star["hub"]
            srcs = self.star["sources"]
            pos = closed_form_position([age[(s, hub)] for s in srcs],
                                       [debt.dest[(s, hub)] for s in srcs],
                                       self.star["probs"],
                                       [self.cost_fns[(s, hub)] for s in srcs])
            return self.star["actions"][pos]
        return self.evaluator.decide(debt, age, buffer, targets, self.cost_fns,
                                     self.tie_break, self.rng)


class _MaxWeight:
    def __init__(self, instance, cost_fns):
        self.star = star_structure(instance)
        hub = self.star["hub"]
        fns = [cost_fns[(s, hub)] for s in self.star["sources"]]
        self.weights = [f.weight if getattr(f, "kind", None) == "linear" else 1.0 for f in fns]

    def decide(self, t, age, buffer, debt, targets):
        hub = self.star["hub"]
        srcs = self.star["sources"]
        pos = max_weight_action([age[(s, hub)] for s in srcs], self.star["probs"], self.weights)
        return self.star["actions"][pos]


class _Randomized:
    def __init__(self, cfg, rng):
        params = cfg.policy_params
        self.cum = list(RandomizedPolicy(tuple(params["probabilities"]))._cum)
        self.rng = rng

    def decide(self, t, age, buffer, debt, targets):
        # the inverse CDF of one scalar draw per slot, where the run draws a
        # block of uniforms at a time
        return bisect.bisect_right(self.cum, self.rng.random())


class _Constant:
    def __init__(self, cfg):
        self.idx = cfg.policy_params["action_index"]

    def decide(self, t, age, buffer, debt, targets):
        return self.idx


def state_index(solution, age):
    """The flat index of an age map in a ``DpSolution``'s tables (ages clip at the cap)."""
    coords = tuple(min(age[p], solution.a_cap) - 1 for p in solution.pairs)
    return int(np.ravel_multi_index(coords, (solution.a_cap,) * len(solution.pairs)))


def action_for(solution, age):
    """The action a ``DpSolution`` prescribes for an age map."""
    return int(solution.policy[state_index(solution, age)])


class _DpTable:
    def __init__(self, cfg):
        self.solution = cfg.policy_params["solution"]

    def decide(self, t, age, buffer, debt, targets):
        return action_for(self.solution, age)


def _controller(instance, cost_fns, cfg, rng):
    if cfg.policy == "age-debt":
        return _AgeDebt(instance, cost_fns, cfg, rng)
    if cfg.policy == "max-weight":
        return _MaxWeight(instance, cost_fns)
    if cfg.policy == "randomized":
        return _Randomized(cfg, rng)
    if cfg.policy == "constant":
        return _Constant(cfg)
    return _DpTable(cfg)


# ---------------------------------------------------------------- the loop

def dict_slot_loop(instance, cost_fns, cfg):
    """``sim.run`` one slot at a time on dict state."""
    age = initial_age(instance.tracked_pairs())
    buffer = initial_buffer(instance.flows)
    debt = initial_debt(instance)
    dest_pairs = list(debt.dest)

    targets = _resolve_targets(cfg, dest_pairs)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _POLICY_RNG_TAG)))
    controller = _controller(instance, cost_fns, cfg, rng)
    evaluator = getattr(controller, "evaluator", None)
    if evaluator is None or not cfg.use_intermediate_queues:
        debt.intermediate = {}
    channels = ChannelProcess(instance, cfg.seed).bits(cfg.horizon)
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
        bits = next(channels)
        deliveries = []
        forwarded = set()
        for (tx, rx, k) in space[action_idx]:
            if tx == k:
                t_g = t
                buffer[(tx, k)] = t
            else:
                t_g = buffer.get((tx, k))
                if t_g is None:
                    continue
                forwarded.add((tx, k))
            if bits[edge_idx[canon_edge(tx, rx)]]:
                deliveries.append((k, rx, t_g))

        age_next = advance_age(age, buffer, deliveries, t)
        priced = update_destination_debt(debt, cost_fns, age_next, targets)
        if debt.intermediate:
            update_intermediate_debt(debt, age, forwarded, evaluator.relay_hops[action_idx],
                                     targets, cost_fns, priced)
        age = age_next

        sum_debt = 0.0
        for pair in dest_pairs:
            c = priced[pair]
            cost_sum[pair] += c
            sum_debt += debt.dest[pair]
            if full_trace:
                a = age[pair]
                h = hists[pair]
                h[a] = h.get(a, 0) + 1
                trace.append((t, pair, a, c, debt.dest[pair], targets[pair], action_idx))
        if sum_debt > max_sum_debt:
            max_sum_debt = sum_debt

        if (t & 4095) == 0 and max(age.values()) > sim.RUNAWAY_AGE:
            raise RuntimeError("runaway instance: age exceeded the abort bound")

    per_pair_cost = {pair: cost_sum[pair] / T for pair in dest_pairs}
    return RunMetrics(
        horizon=T, seed=cfg.seed, per_pair_cost=per_pair_cost,
        sum_cost=math.fsum(per_pair_cost.values()),
        per_pair_debt_rate={pair: debt.dest[pair] / T for pair in dest_pairs},
        max_sum_debt=max_sum_debt, final_targets=dict(targets),
        target_history=target_history, age_histograms=hists, trace=trace)
