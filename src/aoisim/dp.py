"""Average-cost dynamic programming oracle.

Solves the age process as an average-cost MDP by relative value iteration
over the joint vector of tracked ages. Its state axes are the rows of the
instance's ``age.RowPlan`` (destinations and relay nodes, each capped at
``a_cap``), and its channel outcomes are those of the plan's action links.
The model matches the simulator's steady state: a source always has fresh
content (delivering age 1), and a node holds a packet of each flow exactly
as old as its tracked age coordinate, so a successful link (m -> i) moves
pair (k, i) to min(A_ki, A_km) + 1.

Iteration uses the standard laziness transform (mix each action's kernel
with a self-loop) so periodic optimal cycles cannot stall convergence; the
transform changes neither the optimal gain nor the argmin actions. The
same transform drives the power iteration for the stationary distribution
of the optimal closed loop, which gives the per-pair average costs.

Each channel outcome of an action has a successor map: the next index, per
axis, of every state. The maps are built once, as compact flat index
arrays that keep only the axes the next state depends on. A source's
delivery resets its axis to index 0, so on a star the map of a successful
transmission gathers an (a_cap^(n-1))-state block that broadcasts along
that axis; a relay's delivery keeps the axes it reads. Outcomes with the
same per-axis rule share one map (on an unreliable star, every failed
transmission and the idle action advance all ages), and each sweep gathers
every distinct map once into a preallocated buffer.

The sweep's arithmetic is pinned: ``cost + (1 - tau) h``, then ``+ tau
best``, then ``th - th[0]``, with each action's outcomes summed in their
enumeration order. The solution is checked bit for bit against recorded
fingerprints (``tests/test_golden.py``); floating-point addition is not
associative, so any reordering can move the relative values, and with
them the tie-broken policy, in the last bits. Multiplying by a weight of
exactly 1.0 is skipped, which changes no value.

Only meant for desk-scale instances; the joint state space is guarded by an
explicit cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .age import row_plan


class StateSpaceError(ValueError):
    """Raised when the joint age state space would exceed the cap."""


class ConvergenceError(RuntimeError):
    """Raised when relative value iteration, or the power iteration for the
    policy's stationary distribution, hits the iteration cap."""


@dataclass
class DpSolution:
    gain: float                  # optimal long-run average summed cost
    per_pair_average: dict       # (k, j) -> average cost under the policy
    pairs: list                  # coordinate order of the state vector
    a_cap: int
    policy: np.ndarray           # flat state index -> action index
    relative_values: np.ndarray  # flat state index -> relative value
    actions: list
    residual_span: float
    iterations: int
    span_history: list           # span of the value differences after each sweep

    def state_index(self, age):
        coords = tuple(min(age[p], self.a_cap) - 1 for p in self.pairs)
        return int(np.ravel_multi_index(coords, (self.a_cap,) * len(self.pairs)))

    def action_for(self, age):
        """Action index prescribed for the given age map (ages clip at the cap)."""
        return int(self.policy[self.state_index(age)])


def dp_optimal(instance, cost_fns, a_cap=30, tolerance=1e-3,
               state_cap=5_000_000, max_iter=30_000, laziness=0.9):
    """Optimal stationary policy and gain for the average age cost objective.

    Returns a DpSolution whose ``per_pair_average`` holds the exact per-pair
    time-average costs under the optimal policy, for reliable and unreliable
    channels alike, from the closed loop started with every age at 1: the
    mean over its limit cycle when it is deterministic, else the averages
    under its stationary distribution, found by the same lazy power
    iteration (up to ``max_iter`` steps) over the states it reaches.

    The span of successive value differences brackets the gain, so the gain
    is accurate to ``tolerance`` at termination; ``span_history`` holds it
    after every sweep. Ties between equally good actions can leave the span
    cycling at ~1e-4 instead of vanishing; tolerances below that may fail
    to converge.

    Each sweep gathers the relative values once per distinct successor map
    (see the module docstring), cut to the axes the map depends on, and
    takes the minimum over the actions' expected values broadcast against
    those compact blocks. The stationary stage reads successors of the
    reached states from the same maps.
    """
    plan = row_plan(instance)
    n = plan.n_rows
    n_states = a_cap ** n
    if n_states > state_cap:
        raise StateSpaceError(
            f"state space too large: {a_cap}^{n} = {n_states} > cap {state_cap}")

    dims = (a_cap,) * n
    grids = np.ix_(*([np.arange(a_cap)] * n))  # broadcastable per-axis indices

    ages = np.arange(1, a_cap + 1, dtype=float)
    cost = np.zeros(dims)
    pair_costs = {}  # destination pair -> (axis, cost by age index)
    # dest_rows ascend, so the costs are added in axis order
    for pair, r in zip(plan.dest_pairs, plan.dest_rows):
        f = cost_fns[pair]
        vals = np.array([f(int(a)) for a in ages])
        cost = cost + vals[grids[r]]
        pair_costs[pair] = (r, vals)

    probs = [instance.reliability[e] for e in instance.edges]
    maps = []      # compact flat next-state index arrays, one per successor map
    map_pos = {}   # per-axis successor rule -> position in ``maps``
    outcomes_per_action = []  # per action: [(outcome probability, map position)]
    for links in plan.action_links:
        outs = []
        for success in itertools.product((False, True), repeat=len(links)):
            w = 1.0
            senders = {}  # row -> delivering rows and source cells
            for ok, (r, m, e) in zip(success, links):
                w *= probs[e] if ok else (1.0 - probs[e])
                if ok:
                    senders.setdefault(r, []).append(m)
            if w == 0.0:
                continue
            # per axis: None advances the age, "source" resets it to age 1,
            # a tuple names the relay axes whose packets it may receive
            rule = tuple(None if r not in senders
                         else "source" if max(senders[r]) >= n
                         else tuple(sorted(senders[r])) for r in range(n))
            if rule not in map_pos:
                map_pos[rule] = len(maps)
                maps.append(_successor_map(rule, grids, a_cap))
            outs.append((w, map_pos[rule]))
        outcomes_per_action.append(outs)

    h, policy, gain, span, span_history = _relative_value_iteration(
        cost, maps, outcomes_per_action, laziness, tolerance, max_iter)
    del cost  # free the state-sized cost table before the next stage
    per_pair = _stationary_averages(policy, outcomes_per_action, maps, pair_costs,
                                    dims, laziness, max_iter)
    return DpSolution(gain=gain, per_pair_average=per_pair, pairs=list(plan.tracked),
                      a_cap=a_cap, policy=policy,
                      relative_values=h, actions=list(instance.action_space.actions),
                      residual_span=span, iterations=len(span_history),
                      span_history=span_history)


def _relative_value_iteration(cost, maps, outcomes_per_action, tau, tolerance,
                              max_iter):
    """Lazy RVI sweeps until the span of the value differences is below
    ``tolerance``, then the greedy policy, lowest action index on ties.

    Each sweep gathers every distinct successor map once and scores the
    actions into preallocated state-shaped buffers. Returns the flat
    relative values and policy, the gain, the last span and the span after
    each sweep; the buffers are freed on return.
    """
    dims = cost.shape
    h = np.zeros(dims)
    h_flat = h.reshape(-1)
    gathered = [np.empty(m.shape) for m in maps]
    best = np.empty(dims)
    acc = np.empty(dims)
    spare = np.empty(h.size)
    span_history = []
    span = float("inf")  # reported if max_iter allows no sweep at all
    for _ in range(max_iter):
        _gather(h_flat, maps, gathered)
        np.copyto(best, _expected(outcomes_per_action[0], gathered, acc, spare))
        for outs in outcomes_per_action[1:]:
            np.minimum(best, _expected(outs, gathered, acc, spare), out=best)
        # th = cost + (1 - tau) h + tau best, in that order (see the module
        # docstring); acc holds th and best then holds th - h
        th = np.multiply(h, 1.0 - tau, out=acc)
        np.add(cost, th, out=th)
        np.add(th, np.multiply(best, tau, out=best), out=th)
        delta = np.subtract(th, h, out=best)
        lo, hi = float(delta.min()), float(delta.max())
        span = hi - lo
        span_history.append(span)
        gain = 0.5 * (lo + hi)
        np.subtract(th, th.flat[0], out=h)
        if span < tolerance:
            break
    else:
        raise ConvergenceError(
            f"not converged within iteration cap ({max_iter} iterations, span {span:g})")

    _gather(h_flat, maps, gathered)
    policy = np.zeros(dims, dtype=np.int32)
    np.copyto(best, _expected(outcomes_per_action[0], gathered, acc, spare))
    for a_i, outs in enumerate(outcomes_per_action[1:], start=1):
        e = _expected(outs, gathered, acc, spare)
        better = np.less(e, best)
        np.copyto(best, e, where=better)
        policy[better] = a_i
    return h_flat, policy.reshape(-1), gain, span, span_history


def _successor_map(rule, grids, a_cap):
    """Compact flat next-state index array of one per-axis successor rule.

    Each axis contributes its next index times its stride, and broadcasting
    keeps only the axes the next state depends on: the result has length 1
    on every other axis. A source delivery resets its axis to index 0 and
    adds nothing, so on a star that axis collapses; a relay delivery keeps
    the receiving axis and the relay axes it reads.
    """
    n = len(rule)
    adv = np.minimum(np.arange(a_cap) + 1, a_cap - 1)  # age+1, capped
    flat = np.zeros((1,) * n, dtype=np.intp)
    for p, r in enumerate(rule):
        if r is None:
            nxt = adv[grids[p]]
        elif r == "source":
            continue  # fresh stamp: the receiver lands on age 1, index 0
        else:
            # a relay's effective age index is its own coordinate
            cur = grids[p]
            for q in r:
                cur = np.minimum(cur, grids[q])
            nxt = np.minimum(cur + 1, a_cap - 1)
        flat = flat + nxt * a_cap ** (n - 1 - p)
    return flat


def _gather(h_flat, maps, gathered):
    """Gather the relative values of every map's successors, in place.

    Every index is in range by construction; ``mode="clip"`` skips the
    buffered copy that ``np.take`` makes for ``out=`` under the default
    ``mode="raise"``.
    """
    for m, g in zip(maps, gathered):
        np.take(h_flat, m, out=g, mode="clip")


def _expected(outs, gathered, out, spare):
    """Expected next relative value of one action: the sum over its outcomes,
    in order, of weight times gathered block.

    A lone outcome of weight 1.0 is returned as its gathered block, still
    compact; otherwise the sum is written into ``out``. A weight of 1.0 is
    never multiplied, which leaves every value unchanged.
    """
    (w, m), *rest = outs
    if not rest and w == 1.0:
        return gathered[m]
    if w == 1.0:
        np.copyto(out, gathered[m])
    else:
        np.multiply(gathered[m], w, out=out)
    for (w, m) in rest:
        g = gathered[m]
        if w != 1.0:
            g = np.multiply(g, w, out=spare[:g.size].reshape(g.shape))
        np.add(out, g, out=out)
    return out


def _successors(flat_map, coords):
    """Flat successor indices under a compact map of the states whose
    per-axis coordinates are ``coords``."""
    idx = tuple(c if size > 1 else 0 for c, size in zip(coords, flat_map.shape))
    return np.broadcast_to(flat_map[idx], coords[0].shape)


def _stationary_averages(policy, outcomes_per_action, maps, pair_costs, dims, tau,
                         max_iter):
    """Per-pair long-run average costs of the closed loop that starts with
    every age at 1 (flat index 0), over the states the policy reaches from
    there through outcomes of positive probability.

    A deterministic loop (one outcome per reached state, as with reliable
    channels) ends in a cycle, and the average is the mean over that cycle.
    Otherwise the lazy power iteration pi <- (1 - tau) pi + tau pi P runs
    until pi moves by less than 1e-10 in L1 norm; on a cycle it would leave
    last-bit noise where the cycle mean is exact.
    ``pair_costs`` maps each pair to its (coordinate, cost by age index).
    """
    reached = np.zeros(policy.size, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        acts = policy[frontier]
        coords = np.unravel_index(frontier, dims)
        succ = []
        for a_i, outs in enumerate(outcomes_per_action):
            sel = acts == a_i
            sub = tuple(c[sel] for c in coords)
            succ.extend(_successors(maps[m], sub) for (_w, m) in outs)
        succ = np.unique(np.concatenate(succ))
        frontier = succ[~reached[succ]]
        reached[frontier] = True
    states = np.flatnonzero(reached)  # state 0 stays at position 0

    # closed-loop transitions into ``dst``, as positions in ``states``,
    # grouped by action, then outcome, then source position: the mass they
    # carry is, per action a, the outer product of its outcome weights and
    # the weights at ``pos[a]``, gathered once per step
    acts = policy[states]
    coords = np.unravel_index(states, dims)
    pos, dst, out_w = [], [], []
    for a_i, outs in enumerate(outcomes_per_action):
        pos.append(np.flatnonzero(acts == a_i))
        sub = tuple(c[pos[-1]] for c in coords)
        dst.extend(np.searchsorted(states, _successors(maps[m], sub)) for (_w, m) in outs)
        out_w.append(np.array([w for (w, _m) in outs]))
    dst = np.concatenate(dst)
    order = np.concatenate(pos)  # every position once, grouped by action

    weights = np.zeros(states.size)
    if dst.size == states.size:
        successor = np.empty_like(dst)
        successor[order] = dst
        path = [0]
        while (s := int(successor[path[-1]])) not in path:
            path.append(s)
        cycle = path[path.index(s):]
        weights[cycle] = 1.0
        scale = len(cycle)
    else:
        weights[0] = 1.0
        mass = np.empty(states.size)  # the weights at ``order``
        flow = np.empty(dst.size)     # the mass along each transition
        products = []                 # per action: outcome weights, mass, flow
        lo = at = 0
        for p, w in zip(pos, out_w):
            products.append((w[:, None], mass[lo:lo + p.size],
                             flow[at:at + w.size * p.size].reshape(w.size, p.size)))
            lo += p.size
            at += w.size * p.size
        for _ in range(max_iter):
            np.take(weights, order, out=mass)
            for w, m, f in products:
                np.multiply(m, w, out=f)
            nxt = np.bincount(dst, weights=flow, minlength=states.size)
            nxt *= tau
            nxt += (1.0 - tau) * weights
            moved = float(np.abs(nxt - weights).sum())
            weights = nxt
            if moved < 1e-10:
                break
        else:
            raise ConvergenceError(
                f"stationary distribution not converged within iteration cap "
                f"({max_iter} iterations, L1 step {moved:g})")
        scale = 1.0

    return {pair: float(weights @ vals[coords[p]]) / scale
            for pair, (p, vals) in sorted(pair_costs.items())}


def export_table(solution, path):
    """Write the policy table as CSV: one row per state, ages then action
    index then relative value, in the bytes of ``csv.writer``.

    The columns are string arrays: the ages are the grid of age labels in
    state order, the action indices are gathered from their labels, and
    only the relative values are formatted one by one (``{:.10g}``).
    """
    labels = np.array([str(a) for a in range(1, solution.a_cap + 1)])
    rows = labels
    for _ in solution.pairs[1:]:  # the last axis varies fastest
        rows = np.char.add(np.char.add(np.repeat(rows, labels.size), ","),
                           np.tile(labels, rows.size))
    actions = np.array([str(a) for a in range(len(solution.actions))])[solution.policy]
    values = np.array([f"{v:.10g}" for v in solution.relative_values.tolist()])
    for col in (actions, values):
        rows = np.char.add(np.char.add(rows, ","), col)
    header = [f"age_{k}_{j}" for (k, j) in solution.pairs] + ["action_index", "relative_value"]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *rows.tolist()]) + "\r\n")
