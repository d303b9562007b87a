"""Average-cost dynamic programming oracle.

Solves the age process as an average-cost MDP by relative value iteration
over the joint vector of tracked ages (destinations and relay nodes, each
capped at ``a_cap``). The model matches the simulator's steady state: a
source always has fresh content (delivering age 1), and a node holds a
packet of each flow exactly as old as its tracked age coordinate, so a
successful link (m -> i) moves pair (k, i) to min(A_ki, A_km) + 1.

Iteration uses the standard laziness transform (mix each action's kernel
with a self-loop) so periodic optimal cycles cannot stall convergence; the
transform changes neither the optimal gain nor the argmin actions. The
same transform drives the power iteration for the stationary distribution
of the optimal closed loop, which gives the per-pair average costs.

Only meant for desk-scale instances; the joint state space is guarded by an
explicit cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


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

    def state_index(self, age):
        coords = tuple(min(age[p], self.a_cap) - 1 for p in self.pairs)
        return int(np.ravel_multi_index(coords, (self.a_cap,) * len(self.pairs)))

    def action_for(self, age):
        """Action index prescribed for the given age map (ages clip at the cap)."""
        return int(self.policy[self.state_index(age)])

    def export_rows(self):
        """(age per pair ..., action index, relative value) rows, state order."""
        dims = (self.a_cap,) * len(self.pairs)
        for flat in range(self.policy.size):
            coords = np.unravel_index(flat, dims)
            yield tuple(int(c) + 1 for c in coords) + (
                int(self.policy[flat]), float(self.relative_values[flat]))


def _action_links(instance, action, tracked_set):
    """Links of the action that can actually deliver: (m, i, k, p) with the
    receiving pair tracked and the transmitter able to hold the flow."""
    links = []
    for (tx, rx, k) in action:
        if (k, rx) not in tracked_set:
            continue
        if tx != k and (k, tx) not in tracked_set:
            continue  # transmitter can never hold this flow
        links.append((tx, rx, k, instance.edge_prob(tx, rx)))
    return links


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
    is accurate to ``tolerance`` at termination. Ties between equally good
    actions can leave the span cycling at ~1e-4 instead of vanishing;
    tolerances below that may fail to converge.
    """
    pairs = instance.tracked_pairs()
    tracked_set = set(pairs)
    n = len(pairs)
    n_states = a_cap ** n
    if n_states > state_cap:
        raise StateSpaceError(
            f"state space too large: {a_cap}^{n} = {n_states} > cap {state_cap}")

    dest_pairs = {(f.source, j) for f in instance.flows for j in f.destinations}
    dims = (a_cap,) * n
    grids = np.ix_(*([np.arange(a_cap)] * n))  # broadcastable per-axis indices

    ages = np.arange(1, a_cap + 1, dtype=float)
    cost = np.zeros(dims)
    pair_costs = {}  # destination pair -> (coordinate, cost by age index)
    for p, pair in enumerate(pairs):
        if pair in dest_pairs:
            f = cost_fns[pair]
            vals = np.array([f(int(a)) for a in ages])
            cost = cost + vals[grids[p]]
            pair_costs[pair] = (p, vals)

    pair_pos = {pair: p for p, pair in enumerate(pairs)}
    actions = list(instance.action_space.actions)
    # per action: list of (outcome probability, flat next-state index array);
    # flat indices are materialized once so each sweep is a contiguous gather
    outcomes_per_action = []
    adv = np.minimum(np.arange(a_cap) + 1, a_cap - 1)  # age+1, capped
    for action in actions:
        links = _action_links(instance, action, tracked_set)
        outs = []
        for success in itertools.product((False, True), repeat=len(links)):
            w = 1.0
            delivering = {}
            for ok, (tx, rx, k, p_edge) in zip(success, links):
                w *= p_edge if ok else (1.0 - p_edge)
                if ok:
                    delivering.setdefault((k, rx), []).append(tx)
            if w == 0.0:
                continue
            idx = []
            for p, pair in enumerate(pairs):
                k, _ = pair
                senders = delivering.get(pair)
                if not senders:
                    idx.append(adv[grids[p]])
                    continue
                # sender's effective age index: -1 for the source (fresh stamp,
                # the receiver lands on age 1), own coordinate for a relay
                cur = grids[p]
                best = None
                for m in senders:
                    g = np.full((), -1, dtype=int) if m == k else grids[pair_pos[(k, m)]]
                    best = g if best is None else np.minimum(best, g)
                nxt = np.minimum(np.minimum(cur, best) + 1, a_cap - 1)
                idx.append(nxt)
            flat = np.ravel_multi_index(np.broadcast_arrays(*idx), dims)
            outs.append((w, np.ascontiguousarray(flat.reshape(-1), dtype=np.int64)))
        outcomes_per_action.append(outs)

    def expected_next(h_flat, a_i):
        acc = None
        for (w, flat) in outcomes_per_action[a_i]:
            nxt = np.take(h_flat, flat)
            acc = w * nxt if acc is None else acc + w * nxt
        return acc

    h = np.zeros(n_states)
    cost_flat = cost.reshape(-1)
    tau = laziness
    gain = None
    span = None
    for it in range(1, max_iter + 1):
        best = None
        for a_i in range(len(actions)):
            e = expected_next(h, a_i)
            best = e if best is None else np.minimum(best, e, out=best)
        th = cost_flat + (1.0 - tau) * h + tau * best
        delta = th - h
        lo, hi = float(delta.min()), float(delta.max())
        span = hi - lo
        gain = 0.5 * (lo + hi)
        h = th - th[0]
        if span < tolerance:
            break
    else:
        raise ConvergenceError(
            f"not converged within iteration cap ({max_iter} iterations, span {span:g})")

    # greedy policy from the converged relative values, lowest index on ties
    best_val = None
    policy = None
    for a_i in range(len(actions)):
        e = expected_next(h, a_i)
        if best_val is None:
            best_val = e.copy()
            policy = np.zeros(n_states, dtype=np.int32)
        else:
            better = e < best_val
            best_val[better] = e[better]
            policy[better] = a_i

    # release the iteration's state-sized scratch arrays before the next stage
    del best, e, th, delta, best_val, cost, cost_flat
    per_pair = _stationary_averages(policy, outcomes_per_action, pair_costs, dims,
                                    tau, max_iter)
    return DpSolution(gain=gain, per_pair_average=per_pair, pairs=pairs,
                      a_cap=a_cap, policy=policy,
                      relative_values=h, actions=actions,
                      residual_span=span, iterations=it)


def _stationary_averages(policy, outcomes_per_action, pair_costs, dims, tau,
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
        succ = np.unique(np.concatenate([
            flat[frontier[acts == a_i]]
            for a_i, outs in enumerate(outcomes_per_action) for (_w, flat) in outs]))
        frontier = succ[~reached[succ]]
        reached[frontier] = True
    states = np.flatnonzero(reached)  # state 0 stays at position 0

    # closed-loop transitions src -> dst with probability wt, as positions
    # in ``states``
    acts = policy[states]
    src, dst, wt = [], [], []
    for a_i, outs in enumerate(outcomes_per_action):
        pos = np.flatnonzero(acts == a_i)
        for (w, flat) in outs:
            src.append(pos.astype(np.int32))
            dst.append(np.searchsorted(states, flat[states[pos]]).astype(np.int32))
            wt.append(np.full(pos.size, w))
    src, dst, wt = np.concatenate(src), np.concatenate(dst), np.concatenate(wt)

    weights = np.zeros(states.size)
    if src.size == states.size:
        successor = np.empty_like(dst)
        successor[src] = dst
        path = [0]
        while (s := int(successor[path[-1]])) not in path:
            path.append(s)
        cycle = path[path.index(s):]
        weights[cycle] = 1.0
        scale = len(cycle)
    else:
        weights[0] = 1.0
        for _ in range(max_iter):
            nxt = np.bincount(dst, weights=weights[src] * wt, minlength=states.size)
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

    coords = np.unravel_index(states, dims)
    return {pair: float(weights @ vals[coords[p]]) / scale
            for pair, (p, vals) in sorted(pair_costs.items())}


def export_table(solution, path):
    """Write the policy table as CSV: one row per state, ages then action
    index then relative value."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"age_{k}_{j}" for (k, j) in solution.pairs]
                   + ["action_index", "relative_value"])
        for row in solution.export_rows():
            w.writerow([*row[:-1], f"{row[-1]:.10g}"])
