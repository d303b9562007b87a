"""Scheduling and routing policies.

The central object is the exact one-slot drift of the Lyapunov function
L = sum of squared debt queues. For a candidate action, each destination
queue's next value depends on the channel outcome only through the freshest
successful delivery into that destination, so the expectation is computed
exactly by sorting the relevant links by the age they would deliver and
walking the "freshest success" distribution (O(links), no subset
enumeration). Intermediate queues are deterministic given the action when
the relay is forwarding, and otherwise shadow their destination queue's
outcome distribution.

One pass per slot scores every action. A destination's drift terms depend
on the action only through its outcome key, the links that can deliver into
it, and through each relay's hop distance when it forwards. Each distinct
destination key is one group, compiled once per instance: per slot it reads
its outcome costs once, then scores the destination and each distinct relay
term under that key; at most one link is scored inline, with the walk's
bits, and only two or more links build a distribution. The (term x action)
table is summed row by row, as a per-action running sum would: the argmin
ties on exact float equality, so another order would change trajectories.
The freshest tie-break prices only the rows of the tied actions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .age import restricted_hop_distance, row_plan

TIE_BREAKS = ("first", "last", "random", "freshest")


@dataclass
class PolicyDecision:
    """Chosen action plus the score table: every action's exact expected
    drift, by action index."""

    action_index: int
    action: tuple
    scores: tuple


class DriftEvaluator:
    """Exact expected drift of every action, scored in one pass per slot.

    Built once per instance on its ``age.RowPlan`` (``plan``), which owns
    the rows, the relay queues and each action's links; cost tables are
    passed to ``score``. A distribution key is (row, links), each link
    (sender row, or -1 for the source; p_edge), in the action's assignment
    order; ``action_dists[a]`` lists action a's key id for every row, and
    ``outcomes[k]`` is key k compiled as (row, m, p, 1 - p, walk): its
    single link (m, p), m None if it has none, or walk True for two or more.

    A group is one destination key: (row, m, p, 1 - p, g, terms), with g
    the key's position in ``general_keys`` if it has two or more links,
    else None. Its terms are (relay queue, relay row, h or None), the
    destination's (None, row, None) first, then each distinct relay term
    that an action with this key reads. ``index`` gathers the slot's terms
    into the (term x action) table in per-action sum order.

    The evaluator owns the case-1 hop distances: ``relay_hops[a][q]`` is
    relay queue q's hop distance when action ``a`` has its relay
    forwarding, else None; the simulator's relay debt update reads it here.
    """

    def __init__(self, instance):
        self.plan = plan = row_plan(instance)
        probs = [instance.reliability[e] for e in instance.edges]
        queues = [[] for _ in plan.dest_pairs]  # per destination: (queue, relay row)
        for q, (p, _, ri) in enumerate(plan.relays):
            queues[p].append((q, ri))
        self.dist_keys = []  # distinct (row, links) keys
        dist_ids = {}

        def dist_id(r, links):
            key = (r, tuple(links.get(r, ())))
            if key not in dist_ids:
                dist_ids[key] = len(self.dist_keys)
                self.dist_keys.append(key)
            return dist_ids[key]

        groups = {}  # destination key id -> {relay term: position after the destination's}
        cols = []    # per action: (key id, position in its group) of each term, in sum order
        self.action_dists = []  # per action: distribution id of every row
        self.relay_hops = []
        for action, kept in zip(instance.action_space, plan.action_links):
            links = {}  # row -> links that can deliver its flow to it
            for (r, m, e) in kept:
                links.setdefault(r, []).append((-1 if m >= plan.n_rows else m, probs[e]))
            # (node, flow) -> directed edges the node sends that flow on, from
            # the whole action: a first hop back into the source counts too
            fwd = {}
            for (tx, rx, k) in action:
                fwd.setdefault((tx, k), []).append((tx, rx))
            hops = [restricted_hop_distance(instance.adjacency, i, j, fwd[(i, k)])
                    if (i, k) in fwd else None for (k, j, i) in plan.relay_keys]
            ids = [dist_id(r, links) for r in range(plan.n_rows)]
            col = []
            for r, qs in zip(plan.dest_rows, queues):
                d, terms = ids[r], groups.setdefault(ids[r], {})
                col.append((d, 0))
                col.extend((d, terms.setdefault((q, ri, hops[q]), len(terms) + 1))
                           for (q, ri) in qs)
            cols.append(col)
            self.action_dists.append(ids)
            self.relay_hops.append(hops)
        sizes = [1 + len(terms) for terms in groups.values()]
        start = dict(zip(groups, np.cumsum([0] + sizes).tolist()))  # flat position
        self.index = np.array([[start[d] + i for (d, i) in col] for col in cols],
                              dtype=np.intp).reshape(len(cols), -1).T.copy()
        self.outcomes = []
        for (r, links) in self.dist_keys:
            m, p = links[0] if len(links) == 1 else (None, 0.0)
            self.outcomes.append((r, m, p, 1.0 - p, len(links) > 1))
        general = {}  # keys with two or more links, by position in general_keys
        self.groups = []
        for d, terms in groups.items():
            *link, walk = self.outcomes[d]
            g = general.setdefault(self.dist_keys[d], len(general)) if walk else None
            self.groups.append((*link, g, ((None, link[0], None), *terms)))
        self.general_keys = list(general)

    def rows(self, debt, age, buffer, targets, cost_fns):
        """The dict state of the public API as ``score``'s row arguments.
        The evaluator reads only whether a node holds a packet, not its
        stamp. Each pair's cost function is its table, read as ``f[age]``."""
        plan = self.plan
        d, tg, tables = [0.0] * plan.n_rows, [0.0] * plan.n_rows, {}
        for pair, r in zip(plan.dest_pairs, plan.dest_rows):
            d[r], tg[r], tables[r] = debt.dest[pair], targets[pair], cost_fns[pair]
        return (d, [debt.intermediate.get(key) for key in plan.relay_keys],
                [age[pair] for pair in plan.tracked],
                [0 if (node, k) in buffer else -1 for (k, node) in plan.tracked], tg, tables)

    @staticmethod
    def next_age_dist(key, age, stamp):
        """Distribution of the row's next age given the links that can
        deliver into it, key = (row, links): [(next_age, prob)], prob
        summing to 1."""
        r, links = key
        a_now = age[r]
        # a source sends a fresh stamp (age 0), a relay only a packet it holds
        cands = sorted((age[m] if m >= 0 else 0, p) for (m, p) in links if m < 0 or stamp[m] >= 0)
        out = []
        stay = 1.0
        for (g, p) in cands:
            if g >= a_now:
                break  # delivery cannot beat what the node already has
            out.append((min(a_now, g) + 1, stay * p))
            stay *= 1.0 - p
        out.append((a_now + 1, stay))
        # merge duplicates from tied ages
        merged = {}
        for v, p in out:
            merged[v] = merged.get(v, 0.0) + p
        return tuple(sorted(merged.items()))

    def score(self, debt, relay_debt, age, stamp, targets, tables):
        """Exact E[L(t+1) - L(t)] of every action, as a list by action
        index. A relay queue that is None (not kept by the run) adds a 0.0
        term."""
        dists = [self.next_age_dist(key, age, stamp) for key in self.general_keys]
        terms = []
        add = terms.append
        for (r, m, p, p_stay, d, queues) in self.groups:
            tab, alpha, a = tables[r], targets[r], age[r]
            stay = tab[a + 1]  # the cost if nothing fresher arrives
            if d is not None:  # two or more links: walk the distribution
                outs = [(tab[v], w) for (v, w) in dists[d]]
            else:  # one link or none: age g + 1 w.p. p if the sender is fresher
                outs = None
                g = a if m is None else 0 if m < 0 else age[m] if stamp[m] >= 0 else a
                fresh, w_stay = (tab[g + 1], p_stay) if g < a else (None, 1.0)
            for (qr, ri, h) in queues:
                qi = debt[r] if qr is None else relay_debt[qr]
                if qi is None:
                    add(0.0)  # run configured with destination-only debt
                elif h is not None and stamp[ri] >= 0:
                    nq = qi + tab[min(age[ri], a) + h] - alpha
                    add((nq * nq if nq > 0.0 else 0.0) - qi * qi)
                elif outs is None:
                    # the two-outcome sum in either order, as the walk adds it
                    nq = qi + stay - alpha
                    exp_sq = w_stay * nq * nq if nq > 0.0 else 0.0
                    if fresh is not None:
                        nq = qi + fresh - alpha
                        if nq > 0.0:
                            exp_sq += p * nq * nq
                    add(exp_sq - qi * qi)
                else:
                    exp_sq = 0.0
                    for (c, w) in outs:
                        nq = qi + c - alpha
                        if nq > 0.0:
                            exp_sq += w * nq * nq
                    add(exp_sq - qi * qi)
        # add the rows in order, as a per-action `total += term` loop would;
        # accumulate is sequential for every shape, while a reduction over
        # a single action's column may sum pairwise
        return np.add.accumulate(np.array(terms)[self.index], axis=0)[-1].tolist()

    def decide(self, debt, relay_debt, age, stamp, targets, tables, tie_break, rng):
        """The drift-minimizing action index (see ``age_debt_action``), and the scores."""
        scores = self.score(debt, relay_debt, age, stamp, targets, tables)
        best = min(scores)
        ties = [i for i, s in enumerate(scores) if s == best]
        if len(ties) == 1 or tie_break == "first":
            return ties[0], scores
        if tie_break == "last":
            return ties[-1], scores
        if tie_break == "random":
            return ties[int(rng.integers(len(ties)))], scores
        walks = {}
        return min((self.expected_age_sum(i, age, stamp, walks), i) for i in ties)[1], scores

    def expected_age_sum(self, action_idx, age, stamp, walks):
        """E[sum of all tracked ages next slot]; the freshness tie-breaker.
        Adds p * next_age over the action's rows, then outcomes, in order.
        A key with two or more links is walked once per slot, into
        ``walks``; the others are priced from their compiled outcome."""
        total = 0.0
        outcomes = self.outcomes
        for k in self.action_dists[action_idx]:
            r, m, p, p_stay, walk = outcomes[k]
            a = age[r]
            if walk:
                terms = walks.get(k)
                if terms is None:
                    terms = walks[k] = [w * v for (v, w)
                                        in self.next_age_dist(self.dist_keys[k], age, stamp)]
                for x in terms:
                    total += x
                continue
            g = a if m is None else 0 if m < 0 else age[m] if stamp[m] >= 0 else a
            if g < a:
                total += p * (g + 1)
                total += p_stay * (a + 1)
            else:
                total += a + 1  # 1.0 * (a + 1)
        return total


def get_drift_evaluator(instance):
    if instance._drift_evaluator is None:
        instance._drift_evaluator = DriftEvaluator(instance)
    return instance._drift_evaluator


def age_debt_action(debt, age, buffer, targets, cost_fns, instance, tie_break="first",
                    rng=None):
    """Drift-minimizing action: argmin over the whole action space.

    Tie-breaking among exact co-minimizers:
      first    -- lowest action index
      last     -- highest action index
      random   -- uniform among co-minimizers (needs rng)
      freshest -- the co-minimizer with the lowest expected total tracked
                  age next slot (then lowest index). Pure index rules can
                  deadlock multihop cold starts, where no single-slot action
                  moves any queue; this one pushes fresh packets downstream.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if tie_break == "random" and rng is None:
        raise ValueError("random tie-break needs an rng")
    ev = get_drift_evaluator(instance)
    idx, scores = ev.decide(*ev.rows(debt, age, buffer, targets, cost_fns), tie_break, rng)
    return PolicyDecision(idx, instance.action_space[idx], tuple(scores))


def single_hop_age_debt_action(ages, debts, reliabilities, tables):
    """Closed-form drift bound minimizer for a single-hop star: the 0-based
    position of argmax p_i * Q_i * (f_i(A_i + 1) - f_i(1)), lowest index on
    ties. Sequences are aligned over the sources; ``tables`` holds their
    costs indexed by age: a run's cost tables, or ``CostFunction``s, whose
    ``f[age]`` is ``f(age)``."""
    scores = [p * q * (tab[a + 1] - tab[1])
              for a, q, p, tab in zip(ages, debts, reliabilities, tables)]
    return scores.index(max(scores))  # the first maximum


def max_weight_action(ages, reliabilities, weights):
    """Single-hop max-weight baseline: argmax p_i * w_i * A_i * (A_i + 2),
    lowest index on ties."""
    scores = [p * w * a * (a + 2) for a, p, w in zip(ages, reliabilities, weights)]
    return scores.index(max(scores))


@dataclass
class RandomizedPolicy:
    """Stationary distribution over the action space, sampled i.i.d."""

    probabilities: tuple
    actions: tuple = None
    tuned_cost: float = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < 0):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        self.probabilities = tuple(float(x) for x in p)
        cum = np.cumsum(p)
        cum[-1] = 1.0
        self._cum = cum.tolist()

    def sample_index(self, rng):
        # inverse CDF on a scalar draw; rng.choice would rebuild its alias
        # tables every slot
        return min(bisect.bisect_right(self._cum, rng.random()), len(self.probabilities) - 1)


def _project_simplex(v):
    v = np.maximum(v, 0.0)
    s = v.sum()
    if s <= 0:
        v = np.ones_like(v)
        s = v.sum()
    return v / s


def optimize_randomized(instance, cost_fns, search_budget=200, rng=None,
                        horizon=2000, seeds=(0, 1)):
    """Tune a stationary randomized policy by direct search on simulated cost.

    Seeds the search with point masses and uniform mixtures, then spends the
    budget on Dirichlet samples followed by coordinate perturbations around
    the incumbent. Reproducible for a fixed rng seed. Returns the best
    policy found, with its achieved average cost in ``tuned_cost``.
    """
    # local import; sim depends on this module
    from .sim import SimConfig, _open_loop_blocks, _open_loop_run

    if rng is None:
        rng = np.random.default_rng(0)
    n = len(instance.action_space)
    evals = 0
    # every candidate runs on the same channels and uniforms: draw them once
    blocks = {s: list(_open_loop_blocks(instance, s, horizon, randomized=True))
              for s in seeds}

    def objective(probs):
        nonlocal evals
        evals += 1
        costs = []
        for s in seeds:
            cfg = SimConfig(horizon=horizon, seed=s, policy="randomized",
                            policy_params={"probabilities": tuple(probs)})
            costs.append(_open_loop_run(instance, cost_fns, cfg, blocks[s]).sum_cost)
        return sum(costs) / len(costs)

    candidates = [np.full(n, 1.0 / n)]
    if n > 1:
        candidates.append(np.r_[0.0, np.full(n - 1, 1.0 / (n - 1))])  # uniform over non-idle
        candidates.extend(np.eye(n)[1:])  # each non-idle action alone

    best_p, best_c = None, None
    for p in candidates:
        if best_p is not None and evals >= search_budget:
            break
        c = objective(p)
        if best_c is None or c < best_c:
            best_p, best_c = p, c

    while evals < search_budget // 2:
        p = _project_simplex(rng.dirichlet(np.ones(n)))
        c = objective(p)
        if c < best_c:
            best_p, best_c = p, c

    deltas = (0.2, 0.1, 0.05, 0.02)
    di = 0
    while evals < search_budget:
        improved = False
        delta = deltas[min(di, len(deltas) - 1)]
        for i in range(n):
            if evals >= search_budget:
                break
            for sign in (1.0, -1.0):
                if evals >= search_budget:
                    break
                p = best_p.copy()
                p[i] += sign * delta
                p = _project_simplex(p)
                if np.allclose(p, best_p):
                    continue
                c = objective(p)
                if c < best_c:
                    best_p, best_c = p, c
                    improved = True
        if not improved:
            di += 1
            if di >= len(deltas):
                break
    return RandomizedPolicy(tuple(best_p), actions=instance.action_space, tuned_cost=best_c)
