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

One pass per slot scores every action. A pair's drift terms depend on the
action only through its block: the links that can deliver into the pair and
each relay's hop distance when it forwards. Blocks are compiled once per
instance; a block with at most one link is scored inline, with the walk's
bits, and only two or more links build a distribution. The (term x action)
table is summed row by row, as a per-action running sum would: the argmin
ties on exact float equality, so another order would change trajectories.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .age import restricted_hop_distance, row_plan

TIE_BREAKS = ("first", "last", "random", "freshest")


@dataclass
class PolicyDecision:
    """Chosen action plus the full score table (kept for testing)."""

    action_index: int
    action: tuple
    scores: tuple


class DriftEvaluator:
    """Exact expected drift of every action, scored in one pass per slot.

    Built once per instance on its ``age.RowPlan`` (``plan``), which owns
    the rows, the relay queues and each action's links; cost tables are
    passed to ``score``. A distribution key is (row, links), each link
    (sender row, or -1 for the source; p_edge), in the action's assignment
    order. A block is (row, m, p, g, queues): its key's single link (m, p),
    m None if it has none, or g, the key's position in ``general_keys`` if
    it has more; then its terms as (relay queue, relay row, h or None), with
    the destination's (None, row, None) first. ``index`` gathers the slot's
    terms into the (term x action) table in per-action sum order.

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

        self.blocks = []    # (row, dist id, relay terms), compiled below
        block_start = {}    # block -> flat position of its first term
        n_terms = 0
        index = []          # per action: flat term position of each row
        self.action_dists = []  # per action: distribution id of every row
        self.relay_hops = []
        for action, kept in zip(instance.action_space.actions, plan.action_links):
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
                relay_h = tuple((q, ri, hops[q]) for (q, ri) in qs)
                block = (r, ids[r], relay_h)
                if block not in block_start:
                    self.blocks.append(block)
                    block_start[block] = n_terms
                    n_terms += 1 + len(relay_h)
                start = block_start[block]
                col.extend(range(start, start + 1 + len(relay_h)))
            index.append(col)
            self.action_dists.append(ids)
            self.relay_hops.append(hops)
        self.index = np.array(index, dtype=np.intp).T.copy()
        general = {}  # keys with two or more links, by position in general_keys
        for b, (r, d, relay_h) in enumerate(self.blocks):
            links = self.dist_keys[d][1]
            g = general.setdefault(self.dist_keys[d], len(general)) if len(links) > 1 else None
            self.blocks[b] = (r, *(links[0] if len(links) == 1 else (None, 0.0)), g,
                              ((None, r, None),) + relay_h)
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
        cands = [(age[m] if m >= 0 else 0, p) for (m, p) in links if m < 0 or stamp[m] >= 0]
        if len(cands) <= 1:  # what the walk below returns, without the walk
            g, p = cands[0] if cands else (a_now, 0.0)
            return ((g + 1, p), (a_now + 1, 1.0 - p)) if g < a_now else ((a_now + 1, 1.0),)
        cands.sort()
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
        for (r, m, p, d, queues) in self.blocks:
            tab, alpha, a = tables[r], targets[r], age[r]
            # one link or none: next age g + 1 w.p. p if the sender is fresher, else a + 1
            g = a if m is None else 0 if m < 0 else age[m] if stamp[m] >= 0 else a
            outs = ((tab[g + 1], p), (tab[a + 1], 1.0 - p)) if g < a else ((tab[a + 1], 1.0),)
            if d is not None:  # two or more links (m is None)
                outs = [(tab[v], w) for (v, w) in dists[d]]
            for (qr, ri, h) in queues:
                qi = debt[r] if qr is None else relay_debt[qr]
                if qi is None:
                    add(0.0)  # run configured with destination-only debt
                elif h is not None and stamp[ri] >= 0:
                    nq = qi + tab[min(age[ri], a) + h] - alpha
                    add((nq * nq if nq > 0.0 else 0.0) - qi * qi)
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
            if rng is None:
                raise ValueError("random tie-break needs an rng")
            return ties[int(rng.integers(len(ties)))], scores
        dists = [self.next_age_dist(key, age, stamp) for key in self.dist_keys]
        return min((self.expected_age_sum(i, dists), i) for i in ties)[1], scores

    def expected_age_sum(self, action_idx, dists):
        """E[sum of all tracked ages next slot]; the freshness tie-breaker.
        ``dists`` must cover every distribution key."""
        total = 0.0
        for d in self.action_dists[action_idx]:
            for (a_next, p) in dists[d]:
                total += p * a_next
        return total


def get_drift_evaluator(instance):
    if instance._drift_evaluator is None:
        instance._drift_evaluator = DriftEvaluator(instance)
    return instance._drift_evaluator


def expected_drift(action, debt, age, buffer, targets, cost_fns, instance):
    """Exact expected one-slot Lyapunov drift of ``action`` (member of the
    instance's action space, given as tuple or index)."""
    ev = get_drift_evaluator(instance)
    idx = action if isinstance(action, int) else instance.action_space.index[action]
    return ev.score(*ev.rows(debt, age, buffer, targets, cost_fns))[idx]


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
        pol = RandomizedPolicy(tuple(probs), actions=tuple(instance.action_space.actions))
        costs = []
        for s in seeds:
            cfg = SimConfig(horizon=horizon, seed=s, policy="randomized",
                            policy_params={"policy": pol})
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
    return RandomizedPolicy(tuple(best_p), actions=tuple(instance.action_space.actions),
                            tuned_cost=best_c)
