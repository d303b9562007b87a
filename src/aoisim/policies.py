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
destination key is one group. ``DriftEvaluator`` writes Python source for
its instance once and compiles it: one straight-line block per group, which
reads its outcome costs once and scores the destination and each distinct
relay term under that key (at most one link inline, with the walk's bits;
two or more links build a distribution), then each action's running sum as
a left fold over its terms, from the first term, with a prefix that actions
share summed once, and last the argmin with its tie-break: one compiled
``decide`` per instance, which the slot loop calls directly. The freshest
tie-break prices every row's expected next age once per tied slot and folds
each tied action's rows in order.

The argmin ties on exact float equality, so another order or rounding would
change trajectories: the generated text performs the same float operations
in the same order as the dict reference in the tests, writes every float by
its ``repr``, and never calls ``sum()``, which adds floats with compensation
from Python 3.12 on. Code objects are cached per process by source text, so
each worker of a parallel sweep, which unpickles a fresh instance per task,
compiles each distinct instance once. An instance pickles without its
evaluator, and a copy builds its own on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, itemgetter

import numpy as np

from .age import row_plan
from .config import is_int

TIE_BREAKS = ("first", "last", "random", "freshest")

TUNING_SEEDS = (0, 1)  # the run seeds ``optimize_randomized`` scores each candidate on
TUNING_HORIZON = 2000  # the slots of each of its runs, unless set


@dataclass
class PolicyDecision:
    """Chosen action plus the score table: every action's exact expected
    drift, by action index."""

    action_index: int
    action: tuple
    scores: tuple


# Per-row rules as Python text, for every generated function that applies
# them. The case-1 charge of a relay queue whose relay row ``ri`` forwards a
# held packet, at hop distance ``h``: the destination's cost (table ``tab``,
# age ``a``) at the most optimistic deliverable age; the drift evaluator
# scores it and the slot loop charges it.
_CASE1_CHARGE = "{tab}[(age[{ri}] if age[{ri}] < {a} else {a}) + {h}]"
# A star source's closed-form score from its debt q, reliability p and
# gain d, the rise of its cost table tab from age 1 to a + 1 at age a; and
# its max-weight score from a and p * w. The slot loop tabulates the gain
# and the max-weight score by age and writes each reliability as a literal.
_STAR_GAIN = "{tab}[{a} + 1] - {tab}[1]"
_STAR_SCORE = "{p} * {q} * {d}"
_MAX_WEIGHT_SCORE = "{pw} * {a} * ({a} + 2)"


@lru_cache(maxsize=256)
def _compiled(source):
    """The code objects of generated source (an evaluator's, or a slot
    loop's), one per function. Keyed by the text, so every evaluator or loop
    of an identical instance in this process (each unpickled copy of one,
    each sweep task's) shares one compilation. The parser holds ~0.4 kB per
    token of the text it reads at once, so each function compiles on its
    own."""
    return [compile(part, "<aoisim generated>", "exec") for part in source.split("\n\n")]


def _walk_terms(key, age, held, width):
    """p * next age over a key's distribution, in its order, padded with
    0.0 to ``width`` terms: adding 0.0 leaves a positive sum unchanged."""
    terms = [w * v for (v, w) in DriftEvaluator.next_age_dist(key, age, held)]
    return terms + [0.0] * (width - len(terms))


def _indent(lines):
    return ["    " + line for line in lines]


def _weighted(p, x):
    """``p * x`` as text; 1.0 * x is x, bit for bit, so that factor is left out."""
    return x if p == 1.0 else f"{p!r} * {x}"


def _shadow_term(t, how, p, p_stay, st, fr, al):
    """Lines setting t<t> for queue ``q``, when its next value shadows the
    destination's outcome: ``how`` is "walk" (the distribution ``outs``),
    "stay" (cost ``st``: nothing fresher can arrive, weight 1.0) or "fresh"
    (cost ``fr`` w.p. p, else ``st``); ``al`` is the target. The
    two-outcome sum adds in the walk's order."""
    if how == "walk":
        return ["e = 0.0", "for (c, w) in outs:", f"    nq = q + c - {al}",
                "    if nq > 0.0:", "        e += w * nq * nq", f"t{t} = e - q * q"]
    if how == "stay":
        return [f"nq = q + {st} - {al}", f"t{t} = (nq * nq if nq > 0.0 else 0.0) - q * q"]
    return [f"nq = q + {st} - {al}", f"e = {p_stay!r} * nq * nq if nq > 0.0 else 0.0",
            f"nq = q + {fr} - {al}", "if nq > 0.0:", f"    e += {_weighted(p, 'nq * nq')}",
            f"t{t} = e - q * q"]


def _group_terms(r, terms, t, how, p, p_stay, st="st", fr="fr", al="al", q_set=False):
    """Lines setting t<t>, t<t + 1>, ... for a group's terms on row ``r``;
    ``q_set`` if the destination's queue is in ``q`` already."""
    lines = []
    for i, (qr, ri, h) in enumerate(terms, start=t):
        if qr is None:  # the destination's own queue
            lines += [] if q_set else [f"q = debt[{r}]"]
            lines += _shadow_term(i, how, p, p_stay, st, fr, al)
            continue
        lines += [f"q = relay_debt[{qr}]", "if q is None:",
                  f"    t{i} = 0.0  # a run that keeps no relay queues"]
        if h is not None:
            lines += [f"elif held[{ri}]:",
                      f"    nq = q + {_CASE1_CHARGE.format(tab='tab', a='a', ri=ri, h=h)} - {al}",
                      f"    t{i} = (nq * nq if nq > 0.0 else 0.0) - q * q"]
        lines += ["else:", *_indent(_shadow_term(i, how, p, p_stay, st, fr, al))]
    return lines


def _decide_source(groups, cols):
    """``decide``: each group's terms into locals t0, t1, ..., then every
    action's running sum as a left fold over its terms in ``cols`` order,
    from its first term, into ``scores``; then the argmin and tie-break.
    Actions that share a prefix share its partial sum, and a partial sum
    that only one longer prefix reads is not stored."""
    out = []
    t = 0
    for (d, r, m, p, p_stay, key, terms) in groups:
        out.append(f"# key {d}: row {r}")
        one = len(terms) == 1  # the destination alone reads each cost once, inline
        if key is None and m is None and one:
            out += _group_terms(r, terms, t, "stay", p, p_stay,
                                st=f"tables[{r}][age[{r}] + 1]", al=f"targets[{r}]")
            t += 1
            continue
        out += [f"a = age[{r}]", f"tab = tables[{r}]", f"al = targets[{r}]"]
        if key is not None:
            out += [f"outs = [(tab[v], w) for (v, w) in next_age_dist({key!r}, age, held)]",
                    *_group_terms(r, terms, t, "walk", p, p_stay)]
        elif m is None:
            out += ["st = tab[a + 1]", *_group_terms(r, terms, t, "stay", p, p_stay)]
        else:
            # one link: age g + 1 w.p. p if the sender (the source: g = 0)
            # holds a fresher packet
            cond, fr = ("0 < a", "tab[1]") if m < 0 else \
                (f"held[{m}] and age[{m}] < a", f"tab[age[{m}] + 1]")
            if one:
                st = "tab[a + 1]"
                out += [f"q = debt[{r}]", f"if {cond}:"]
            else:
                out += ["st = tab[a + 1]", f"if {cond}:", f"    fr = {fr}"]
                st, fr = "st", "fr"
            out += [*_indent(_group_terms(r, terms, t, "fresh", p, p_stay, st, fr, q_set=one)),
                    "else:",
                    *_indent(_group_terms(r, terms, t, "stay", p, p_stay, st, fr, q_set=one))]
        t += len(terms)

    # the fold: one trie node per distinct prefix of an action's terms
    nodes = {}    # (parent node, term) -> node; node 0 is the empty prefix
    parent = [None]
    fan = [0]     # children per node
    leaves = []
    for col in cols:
        node = 0
        for term in col:
            nxt = nodes.get((node, term))
            if nxt is None:
                nxt = nodes[(node, term)] = len(parent)
                parent.append((node, term))
                fan.append(0)
                fan[node] += 1
            node = nxt
        leaves.append(node)
    stored = set(leaves)
    expr, depth = {}, {}
    for node in range(1, len(parent)):
        up, term = parent[node]
        if up == 0:
            expr[node], depth[node] = f"t{term}", 1
        else:
            expr[node], depth[node] = f"{expr[up]} + t{term}", depth[up] + 1
        # a long chain is stored too, to keep the compiler's recursion shallow
        if node in stored or fan[node] != 1 or depth[node] >= 64:
            out.append(f"s{node} = {expr[node]}")
            expr[node], depth[node] = f"s{node}", 0
    out += [f"scores = [{', '.join(f's{leaf}' for leaf in leaves)}]", *_DECISION]
    return ["def decide(debt, relay_debt, age, held, targets, tables, tie_break, rng):",
            *_indent(out)]


# ``decide``'s argmin over ``scores`` and its tie-breaks (see
# ``age_debt_action``). A minimum that no other score equals is the common
# case; a NaN minimum takes the general path, which finds no tie.
_DECISION = [
    "best = min(scores)",
    "if best == best and scores.count(best) == 1:",
    "    return scores.index(best), scores",
    "ties = [i for i, s in enumerate(scores) if s == best]",
    "if len(ties) == 1 or tie_break == 'first':",
    "    return ties[0], scores",
    "if tie_break == 'last':",
    "    return ties[-1], scores",
    "if tie_break == 'random':",
    "    return ties[int(rng.integers(len(ties)))], scores",
    "terms = age_terms(age, held)",
    "return min((reduce(add, picks[i](terms)), i) for i in ties)[1], scores",
]


def _age_terms_source(outcomes, dist_keys):
    """``age_terms``: 0.0, then every key's p * next age terms in key order,
    a fixed number per key: one without links, two (p * (g + 1), then
    (1 - p) * (a + 1)) for one link, links + 1 for a walk. A term that a
    slot's outcome leaves out is 0.0, which a left fold over positive terms
    adds without a change. Returns the text and each key's terms' positions."""
    out, cells, where = [], ["0.0"], []
    n = 1  # terms so far
    for k, (r, m, p, p_stay, walk) in enumerate(outcomes):
        if walk:
            width = len(dist_keys[k][1]) + 1
            cells.append(f"*walk({dist_keys[k]!r}, age, held, {width})")
        elif m is None:
            width = 1
            cells.append(f"age[{r}] + 1")  # nothing can arrive: 1.0 * (a + 1)
        else:
            width = 2
            cells += [f"v{n}", f"v{n + 1}"]
            cond, fresh = ("0 < a", repr(p)) if m < 0 else \
                (f"held[{m}] and age[{m}] < a", _weighted(p, f"(age[{m}] + 1)"))
            # ages are ints, so a 0.0 weight gives 0.0
            stay = "0.0" if p_stay == 0.0 else f"{p_stay!r} * (a + 1)"
            out += [f"a = age[{r}]", f"if {cond}:", f"    v{n} = {fresh}",
                    f"    v{n + 1} = {stay}", "else:", f"    v{n} = a + 1", f"    v{n + 1} = 0.0"]
        where.append(range(n, n + width))
        n += width
    out.append(f"return [{', '.join(cells)}]")
    return ["def age_terms(age, held):", *_indent(out)], where


class DriftEvaluator:
    """Exact expected drift of every action, scored in one pass per slot by
    code generated for the instance.

    Built once per instance on its ``age.RowPlan`` (``plan``), which owns
    the rows, the relay queues, each action's links and its relay hop
    distances; cost tables are passed to ``decide``. A distribution key is
    (row, links), each link (sender row, or -1 for the source; p_edge), in
    the action's assignment order; ``dist_keys`` lists the distinct keys and
    ``action_dists[a]`` action a's key id for every row.

    A group is one destination key, and its terms are the destination's
    queue, then each distinct relay term (relay queue, relay row, hop
    distance when forwarding) that an action with this key reads. Per slot
    a group reads its outcome costs once and scores each term: at most one
    link is priced inline, with the walk's bits, and only two or more links
    build a distribution. ``source`` is the generated Python text:
    ``decide``, one straight-line block per group, then each action's
    running sum as a left fold over its terms (destinations in order, each
    followed by its relay terms), then the argmin and the four tie-breaks;
    and ``age_terms``, every key's expected next-age terms, which the
    ``freshest`` tie-break folds over each tied action's rows. The argmin
    ties on exact float equality, so the text fixes every float operation
    and its order.

    ``decide(debt, relay_debt, age, held, targets, tables, tie_break,
    rng)`` is the compiled function: it returns the drift-minimizing action
    index (see ``age_debt_action``) and every action's exact
    E[L(t+1) - L(t)], as a list by action index; a relay queue that is None
    (not kept by the run) adds a 0.0 term. The slot loop calls it directly.
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
        for kept, hops in zip(plan.action_links, plan.relay_hops):
            links = {}  # row -> links that can deliver its flow to it
            for (r, m, e) in kept:
                links.setdefault(r, []).append((m, probs[e]))
            ids = [dist_id(r, links) for r in range(plan.n_rows)]
            col = []
            for r, qs in zip(plan.dest_rows, queues):
                d, terms = ids[r], groups.setdefault(ids[r], {})
                col.append((d, 0))
                col.extend((d, terms.setdefault((q, ri, hops[q]), len(terms) + 1))
                           for (q, ri) in qs)
            cols.append(col)
            self.action_dists.append(ids)
        # per key: (row, m, p, 1 - p, walk), its single link (m, p), m None
        # if it has none, or walk True for two or more
        outcomes = []
        for (r, links) in self.dist_keys:
            m, p = links[0] if len(links) == 1 else (None, 0.0)
            outcomes.append((r, m, p, 1.0 - p, len(links) > 1))
        start, flat = {}, 0  # each group's first term in the flat order
        for d, terms in groups.items():
            start[d], flat = flat, flat + 1 + len(terms)
        source = _decide_source(
            [(d, *outcomes[d][:4], self.dist_keys[d] if outcomes[d][4] else None,
              [(None, outcomes[d][0], None), *terms]) for d, terms in groups.items()],
            [[start[d] + i for (d, i) in col] for col in cols])
        age_source, where = _age_terms_source(outcomes, self.dist_keys)
        self._source = "\n".join(source) + "\n\n" + "\n".join(age_source) + "\n"
        # per action: the leading 0.0, then its rows' age terms in row order
        picks = [itemgetter(0, *(i for k in ids for i in where[k])) for ids in self.action_dists]
        names = {"next_age_dist": DriftEvaluator.next_age_dist, "walk": _walk_terms,
                 "reduce": reduce, "add": add, "picks": picks}
        for code in _compiled(self._source):
            exec(code, names)
        self.decide = names["decide"]

    @property
    def source(self):
        """The generated Python text that ``decide`` runs; the same for the
        same instance in every process."""
        return self._source

    def rows(self, debt, age, buffer, targets, cost_fns):
        """The dict state of the public API as ``decide``'s row arguments: a
        row holds a packet iff its (node, flow) is in ``buffer``, whatever
        its age. Each pair's cost function is its table, read as
        ``f[age]``."""
        plan = self.plan
        d, tg, tables = [0.0] * plan.n_rows, [0.0] * plan.n_rows, {}
        for pair, r in zip(plan.dest_pairs, plan.dest_rows):
            d[r], tg[r], tables[r] = debt.dest[pair], targets[pair], cost_fns[pair]
        return (d, [debt.intermediate.get(key) for key in plan.relay_keys],
                [age[pair] for pair in plan.tracked],
                [(node, k) in buffer for (k, node) in plan.tracked], tg, tables)

    @staticmethod
    def next_age_dist(key, age, held):
        """Distribution of the row's next age given the links that can
        deliver into it, key = (row, links): [(next_age, prob)], prob
        summing to 1."""
        r, links = key
        a_now = age[r]
        # a source sends a fresh update (age 0), a relay only a packet it holds
        cands = sorted((age[m] if m >= 0 else 0, p) for (m, p) in links if m < 0 or held[m])
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


@dataclass
class RandomizedPolicy:
    """Stationary distribution over the action space, sampled i.i.d."""

    probabilities: tuple
    tuned_cost: float = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError(f"non-finite probability in {self.probabilities}")
        if np.any(p < 0):
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        self.probabilities = tuple(float(x) for x in p)
        self._cum = np.cumsum(p)
        self._cum[-1] = 1.0

    def sample_index(self, rng):
        return int(_actions(self._cum, rng.random(1))[0])


def _actions(cum, uniforms):
    """Each uniform draw's action by the inverse CDF ``cum``, which ends at
    exactly 1.0 above every draw: never an action of probability 0."""
    return np.searchsorted(cum, uniforms, side="right")


def _project_simplex(v):
    v = np.maximum(v, 0.0)
    s = v.sum()
    if s <= 0:
        v = np.ones_like(v)
        s = v.sum()
    return v / s


def _check_tuning(search_budget, horizon):
    """Raise ``ValueError`` unless ``optimize_randomized`` can search with these."""
    for what, value in (("tuning budget", search_budget), ("tuning horizon", horizon)):
        if not is_int(value) or value < 1:
            raise ValueError(f"{what} must be an integer >= 1, got {value!r}")


def optimize_randomized(instance, cost_fns, search_budget=200, rng=None, horizon=TUNING_HORIZON):
    """Tune a stationary randomized policy by direct search on simulated cost,
    averaged over the runs of seeds ``TUNING_SEEDS``.

    Seeds the search with point masses and uniform mixtures, then spends the
    budget on Dirichlet samples followed by coordinate perturbations around
    the incumbent. Reproducible for a fixed rng seed. Returns the best
    policy found, with its achieved average cost in ``tuned_cost``.
    """
    # local import; sim depends on this module
    from .sim import SimConfig, _open_loop_blocks, _open_loop_run

    _check_tuning(search_budget, horizon)
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(instance.action_space)
    evals = 0
    # every candidate runs on the same channels and uniforms: draw them once
    blocks = {s: list(_open_loop_blocks(instance, s, horizon)) for s in TUNING_SEEDS}

    def objective(probs):
        nonlocal evals
        evals += 1
        costs = []
        for s in TUNING_SEEDS:
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
    return RandomizedPolicy(tuple(best_p), tuned_cost=best_c)
