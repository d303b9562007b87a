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
transmission and the idle action advance all ages).

A sweep runs one slab of leading-axis indices at a time, about 64k states,
so that a slab's gathered blocks and action scores stay in a core's cache
instead of a dozen state-sized arrays streaming through memory. Each full
map is gathered slab by slab into buffers allocated once per solve; a map
of length 1 on the leading axis is gathered once per sweep and broadcasts
against every slab.

A solve of more than one slab runs on one thread per CPU the process may
use, started and joined inside the solve. Each thread sweeps a contiguous
run of slabs with its own buffers. Before the threads start, the caller
computes the new value of state 0 with the sweep's own arithmetic, and
every slab subtracts it, so the parts are independent of one another.
The power iteration of the stationary stage splits the closed-loop
transitions by destination range, so each thread adds up the flows into
its own states.

The sweep's arithmetic is pinned: ``cost + (1 - tau) h``, then ``+ tau
best``, then ``th - th[0]``, with each action's outcomes summed in their
enumeration order. Every state gets the same operations in the same order
whatever slab or thread it falls in, and the minimum and maximum are exact
under any split, so slab order leaves every value unchanged. Likewise each
state of the power iteration adds its inflows in the same order under any
destination split, and the L1 step is summed once over the whole array.
The solution is checked bit for bit against recorded fingerprints
(``tests/test_golden.py``), also with the states cut into several slabs
and split between two threads; floating-point addition is not
associative, so any reordering can move the relative values, and with
them the tie-broken policy, in the last bits. Multiplying by a weight of
exactly 1.0 is skipped, which changes no value.

Only meant for desk-scale instances; the joint state space is guarded by an
explicit cap.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .age import row_plan
from .config import is_int

# states per sweep slab: at a_cap 30 on a 4-source star, 2 of the 30
# leading-axis indices, whose slab buffers fit in a core's L2 cache
_SLAB_STATES = 1 << 16
# threads per solve of more than one slab: one per CPU this process may use
_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
STATE_CAP = 5_000_000  # cap on the joint state count a_cap ** rows
MAX_ITER = 30_000  # cap on the sweeps of value iteration and the power iteration's steps
LAZINESS = 0.9  # weight of each action's kernel against a self-loop


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
    span_history: list           # span of the value differences after each sweep

    @property
    def residual_span(self):
        """The span after the last sweep, below the tolerance."""
        return self.span_history[-1]

    @property
    def iterations(self):
        """The sweeps the solve took."""
        return len(self.span_history)


def dp_state_count(instance, a_cap=30, tolerance=1e-3):
    """The joint state count, a_cap ** rows, of a ``dp_optimal`` solve with
    these arguments. Raises ``ValueError`` for an ``a_cap`` that is not an
    integer >= 1 or a ``tolerance`` that is not positive, and
    ``StateSpaceError`` for a count above ``STATE_CAP``."""
    if not is_int(a_cap):
        raise ValueError(f"a_cap must be an integer, got {a_cap!r}")
    if a_cap < 1:
        raise ValueError(f"a_cap must be at least 1, got {a_cap}")
    if not tolerance > 0:  # NaN too: no span is ever below it
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    n = row_plan(instance).n_rows
    n_states = int(a_cap) ** n  # a numpy integer would wrap
    if n_states > STATE_CAP:
        raise StateSpaceError(
            f"state space too large: {a_cap}^{n} = {n_states} > cap {STATE_CAP}")
    return n_states


def dp_optimal(instance, cost_fns, a_cap=30, tolerance=1e-3):
    """Optimal stationary policy and gain for the average age cost objective.

    Returns a DpSolution whose ``per_pair_average`` holds the exact per-pair
    time-average costs under the optimal policy, for reliable and unreliable
    channels alike, from the closed loop started with every age at 1: the
    mean over its limit cycle when it is deterministic, else the averages
    under its stationary distribution, found by the same lazy power
    iteration (up to ``MAX_ITER`` steps) over the states it reaches.

    The span of successive value differences brackets the gain, so the gain
    is accurate to ``tolerance`` at termination; ``span_history`` holds it
    after every sweep. Ties between equally good actions can leave the span
    cycling at ~1e-4 instead of vanishing; tolerances below that may fail
    to converge.

    Each sweep gathers the relative values once per distinct successor map
    (see the module docstring), cut to the axes the map depends on, and
    takes the minimum over the actions' expected values broadcast against
    those compact blocks, one slab of states at a time. The stationary stage
    reads successors of the reached states from the same maps. A solve of
    more than one slab runs both stages on one thread per CPU, with the
    same bits as on one; every thread is joined before it returns or raises.

    Raises the errors of ``dp_state_count`` before any work.
    """
    dp_state_count(instance, a_cap, tolerance)
    plan = row_plan(instance)
    n = plan.n_rows
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
            senders = {}  # row -> delivering rows, -1 for the source
            for ok, (r, m, e) in zip(success, links):
                w *= probs[e] if ok else (1.0 - probs[e])
                if ok:
                    senders.setdefault(r, []).append(m)
            if w == 0.0:
                continue
            # per axis: None advances the age, "source" resets it to age 1,
            # a tuple names the relay axes whose packets it may receive
            rule = tuple(None if r not in senders
                         else "source" if min(senders[r]) < 0
                         else tuple(sorted(senders[r])) for r in range(n))
            if rule not in map_pos:
                map_pos[rule] = len(maps)
                maps.append(_successor_map(rule, grids, a_cap))
            outs.append((w, map_pos[rule]))
        outcomes_per_action.append(outs)

    rows = max(1, min(a_cap, _SLAB_STATES // a_cap ** (n - 1)))
    slabs = [slice(i, min(i + rows, a_cap)) for i in range(0, a_cap, rows)]
    n_parts = min(_THREADS, len(slabs))
    pool = None
    if n_parts > 1:
        # imported here, so that ``import aoisim`` stays light
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(n_parts - 1, thread_name_prefix="aoisim-dp")
    # the workers live for this solve only: ``run_sweep`` may fork after it
    with pool or contextlib.nullcontext():
        h, policy, gain, span_history = _relative_value_iteration(
            cost, maps, outcomes_per_action, slabs, n_parts, pool, tolerance)
        del cost  # free the state-sized cost table before the next stage
        per_pair = _stationary_averages(policy, outcomes_per_action, maps, pair_costs,
                                        dims, n_parts, pool)
    return DpSolution(gain=gain, per_pair_average=per_pair, pairs=list(plan.tracked),
                      a_cap=a_cap, policy=policy,
                      relative_values=h, actions=list(instance.action_space),
                      span_history=span_history)


def _run_parts(pool, body, parts):
    """``body(part)`` for every part: the first on the calling thread, each
    other one on ``pool``. Returns once every part has finished, and
    re-raises the first part's error, else the first failed worker's."""
    futures = [pool.submit(body, part) for part in parts[1:]]
    try:
        body(parts[0])
    finally:
        for f in futures:
            f.exception()  # waits for the part to finish
    for f in futures:
        f.result()


def _relative_value_iteration(cost, maps, outcomes_per_action, slabs, n_parts, pool,
                              tolerance):
    """Lazy RVI sweeps until the span of the value differences is below
    ``tolerance``, then the greedy policy, lowest action index on ties.

    The sweeps and the policy pass run slab by slab (see the module
    docstring), each of ``n_parts`` threads over a contiguous run of
    ``slabs`` with its own slab buffers; each sweep writes its relative
    values to a second state array, swapped in after it, whose slab is
    scratch space until then. Returns the flat relative values and policy,
    the gain and the span after each sweep; the slab buffers are freed on
    return.
    """
    dims = cost.shape
    rows = slabs[0].stop
    # maps of length 1 on the leading axis: gathered whole, shared by all parts
    whole = {i: np.empty(m.shape) for i, m in enumerate(maps) if m.shape[0] == 1}
    parts = []  # per thread: its (index, slice) slabs, gather buffers, best, spare
    for i in range(n_parts):
        run = range(len(slabs) * i // n_parts, len(slabs) * (i + 1) // n_parts)
        parts.append(([(k, slabs[k]) for k in run],
                      [whole[j] if j in whole else np.empty((rows,) + m.shape[1:])
                       for j, m in enumerate(maps)],
                      np.empty((rows,) + dims[1:]), np.empty(rows * cost[0].size)))
    # state arrays last: the one freed on return is reused by the stationary
    # stage, which holds the solve's peak (the lowest peak RSS measured)
    policy = np.zeros(dims, dtype=np.int32)
    h, h_next = np.zeros(dims), np.empty(dims)
    lows, highs = np.empty((2, len(slabs)))
    span_history = []
    tau = LAZINESS

    def sweep(part):
        own, gathered, best, spare = part
        for k, s, views, b in _slabs(h, maps, own, gathered, best):
            th = h_next[s]  # scratch until it takes the slab's new values
            e = _best(outcomes_per_action, views, b, th, spare)
            # th = cost + (1 - tau) h + tau best, in that order (see the
            # module docstring); best then holds th - h
            np.multiply(h[s], 1.0 - tau, out=th)
            np.add(cost[s], th, out=th)
            np.add(th, np.multiply(e, tau, out=b), out=th)
            delta = np.subtract(th, h[s], out=b)
            lows[k], highs[k] = delta.min(), delta.max()
            np.subtract(th, th0, out=th)

    for _ in range(MAX_ITER):
        _gather_whole(h, maps, whole)
        # the new value of state 0, by the sweep's arithmetic on one-element
        # views of h at each map's successor of state 0
        h_flat = h.reshape(-1)
        e = _best(outcomes_per_action, [h_flat[m.flat[0]:m.flat[0] + 1] for m in maps],
                  *np.empty((3, 1)))
        th0 = cost.flat[0] + h_flat[0] * (1.0 - tau) + e[0] * tau
        _run_parts(pool, sweep, parts)
        h, h_next = h_next, h
        lo, hi = float(lows.min()), float(highs.max())
        span_history.append(hi - lo)
        gain = 0.5 * (lo + hi)
        if span_history[-1] < tolerance:
            break
    else:
        raise ConvergenceError(f"not converged within iteration cap "
                               f"({MAX_ITER} iterations, span {span_history[-1]:g})")

    def settle(part):
        own, gathered, best, spare = part
        for _k, s, views, b in _slabs(h, maps, own, gathered, best):
            np.copyto(b, _expected(outcomes_per_action[0], views, h_next[s], spare))
            for a_i, outs in enumerate(outcomes_per_action[1:], start=1):
                e = _expected(outs, views, h_next[s], spare)
                better = np.less(e, b)
                np.copyto(b, e, where=better)
                policy[s][better] = a_i

    _gather_whole(h, maps, whole)
    _run_parts(pool, settle, parts)
    return h.reshape(-1), policy.reshape(-1), gain, span_history


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
            continue  # fresh update: the receiver lands on age 1, index 0
        else:
            # a relay's effective age index is its own coordinate
            cur = grids[p]
            for q in r:
                cur = np.minimum(cur, grids[q])
            nxt = np.minimum(cur + 1, a_cap - 1)
        flat = flat + nxt * a_cap ** (n - 1 - p)
    return flat


def _gather_whole(h, maps, whole):
    """Gather from ``h`` the relative values of the successors under each
    map of length 1 on the leading axis, into ``whole[map position]``: such
    a block is the same for every slab, so it is gathered once per pass and
    broadcasts against each slab."""
    h_flat = h.reshape(-1)
    for j, g in whole.items():
        h_flat.take(maps[j], out=g, mode="clip")


def _slabs(h, maps, slabs, gathered, best):
    """Per (index, slice) in ``slabs``, yield the index, the slice, the
    relative values of every map's successors, and the slab's rows of
    ``best``. A map of length 1 on the leading axis reads its ``whole``
    block (see ``_gather_whole``); every other map is gathered from ``h``
    into its buffer in ``gathered``. Every index is in range by
    construction; ``mode="clip"`` skips the buffered copy that ``take``
    makes for ``out=`` under the default ``mode="raise"``.
    """
    h_flat = h.reshape(-1)
    for k, s in slabs:
        n = s.stop - s.start
        yield k, s, [g if m.shape[0] == 1 else h_flat.take(m[s], out=g[:n], mode="clip")
                     for m, g in zip(maps, gathered)], best[:n]


def _best(outcomes_per_action, gathered, out, scratch, spare):
    """The least expected next relative value over the actions: a chain of
    ``np.minimum`` in action order into ``out``, each later action summed in
    ``scratch``."""
    e = _expected(outcomes_per_action[0], gathered, out, spare)
    for outs in outcomes_per_action[1:]:
        e = np.minimum(e, _expected(outs, gathered, scratch, spare), out=out)
    return e


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


def _steps(states, policy, outcomes_per_action, maps, dims):
    """The closed loop's moves out of the flat ``states``, by action, then
    outcome: per outcome, its weight, the positions in ``states`` of the
    states whose policy takes the action, and their flat successors."""
    acts = policy[states]
    coords = np.unravel_index(states, dims)
    for a_i, outs in enumerate(outcomes_per_action):
        pos = np.flatnonzero(acts == a_i)
        sub = tuple(c[pos] for c in coords)
        for w, m in outs:
            idx = tuple(c if size > 1 else 0 for c, size in zip(sub, maps[m].shape))
            yield w, pos, np.broadcast_to(maps[m][idx], pos.shape)


def _stationary_averages(policy, outcomes_per_action, maps, pair_costs, dims, n_parts,
                         pool):
    """Per-pair long-run average costs of the closed loop that starts with
    every age at 1 (flat index 0), over the states the policy reaches from
    there through outcomes of positive probability.

    A deterministic loop (one outcome per reached state, as with reliable
    channels) ends in a cycle, and the average is the mean over that cycle.
    Otherwise the lazy power iteration pi <- (1 - tau) pi + tau pi P runs
    until pi moves by less than 1e-10 in L1 norm; on a cycle it would leave
    last-bit noise where the cycle mean is exact. Each of ``n_parts``
    threads computes the new weights of one range of reached states.
    ``pair_costs`` maps each pair to its (coordinate, cost by age index).
    """
    reached = np.zeros(policy.size, dtype=bool)
    reached[0] = True
    new = np.zeros(policy.size, dtype=bool)  # marks the next frontier, clear between levels
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        for _w, _pos, nxt in _steps(frontier, policy, outcomes_per_action, maps, dims):
            new[nxt] = True
        new &= ~reached
        frontier = np.flatnonzero(new)
        reached[frontier] = True
        new[frontier] = False
    states = np.flatnonzero(reached)  # state 0 stays at position 0

    parts = _transitions(states, policy, outcomes_per_action, maps, dims, n_parts)
    weights = np.zeros(states.size)
    if sum(src.size for _lo, _hi, _runs, src, _dst, _flow in parts) == states.size:
        successor = np.empty(states.size, dtype=np.intp)
        for lo, _hi, _runs, src, dst, _flow in parts:
            successor[src] = dst + lo
        path = [0]
        while (s := int(successor[path[-1]])) not in path:
            path.append(s)
        cycle = path[path.index(s):]
        weights[cycle] = 1.0
        scale = len(cycle)
    else:
        weights[0] = 1.0
        nxt, gap = np.empty(states.size), np.empty(states.size)
        tau = LAZINESS

        def step(part):
            # nxt = tau * (flows in) + (1 - tau) * weights, in that order, and
            # the gap |nxt - weights| that the L1 step sums whole
            lo, hi, runs, src, dst, flow = part
            np.take(weights, src, out=flow, mode="clip")
            for w, start, stop in runs:
                np.multiply(flow[start:stop], w, out=flow[start:stop])
            into = np.bincount(dst, weights=flow, minlength=hi - lo)
            np.multiply(into, tau, out=nxt[lo:hi])
            np.multiply(weights[lo:hi], 1.0 - tau, out=into)
            np.add(nxt[lo:hi], into, out=nxt[lo:hi])
            np.abs(np.subtract(nxt[lo:hi], weights[lo:hi], out=gap[lo:hi]), out=gap[lo:hi])

        for _ in range(MAX_ITER):
            _run_parts(pool, step, parts)
            moved = float(gap.sum())
            weights, nxt = nxt, weights
            if moved < 1e-10:
                break
        else:
            raise ConvergenceError(
                f"stationary distribution not converged within iteration cap "
                f"({MAX_ITER} iterations, L1 step {moved:g})")
        scale = 1.0

    # each pair's coordinate of every reached state, in the flat C order
    return {pair: float(weights @ vals[states // int(np.prod(dims[p + 1:])) % dims[p]]) / scale
            for pair, (p, vals) in sorted(pair_costs.items())}


def _transitions(states, policy, outcomes_per_action, maps, dims, n_parts):
    """The closed-loop transitions between the reached ``states``, as
    positions in ``states``, split into ``n_parts`` by the range of their
    destination.

    Within a range they keep their order by action, then outcome, then
    source, so every state adds its inflows in the same order under any
    split. Per part: its range, the (outcome weight, start, stop) runs of
    its transitions, their sources, their destinations from the start of
    the range, and a buffer for the flow along each. Each part is built from
    per-outcome pieces, with no array of every transition.
    """
    bounds = [states.size * i // n_parts for i in range(n_parts + 1)]
    pieces = [[] for _ in range(n_parts)]  # per part: (weight, sources, destinations)
    for w, pos, nxt in _steps(states, policy, outcomes_per_action, maps, dims):
        dst = np.searchsorted(states, nxt)
        for lo, hi, got in zip(bounds, bounds[1:], pieces):
            sel = (dst >= lo) & (dst < hi)
            got.append((w, pos[sel], dst[sel] - lo))
    parts = []
    for lo, hi, got in zip(bounds, bounds[1:], pieces):
        stops = np.cumsum([p.size for _w, p, _d in got]).tolist()
        runs = [(w, stop - p.size, stop) for (w, p, _d), stop in zip(got, stops)]
        src = np.concatenate([p for _w, p, _d in got])
        dst = np.concatenate([d for _w, _p, d in got])
        got.clear()  # free the pieces before the next part is joined
        parts.append((lo, hi, runs, src, dst, np.empty(src.size)))
    return parts


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
