"""Independent references for the aoisim benchmark.

Nothing here imports aoisim. Each reference is a closed form from the AoI
literature or a small model of the network written from its definition, and
each has a self-test on a case small enough to solve by hand or by
exhaustive search (run them with ``python3 perfbench/refs.py``).

Age convention, shared with the simulator: every tracked age starts at 1, a
fresh update delivered in a slot leaves the receiver at age 1 after that
slot, a relay forwards the freshest packet it holds, and a successful link
m -> i leaves pair (k, i) at min(A_ki, A_km) + 1 (A_kk = 0 for the source).
"""

from __future__ import annotations

import itertools
import math

# OEIS A001349: connected graphs on n unlabeled nodes.
CONNECTED_GRAPH_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# The paper's DP table for the reliable 4-source star with costs 15A, e^A,
# A^2, A^3 (two decimals as printed). The printed table swaps the A^2 and
# A^3 entries against its own labels; the pairing below is the one the
# optimal cycle gives (see paper_table_cycle_values).
PAPER_TABLE = {"gain": 87.72, "15A": 45.0, "e^A": 14.52, "A^2": 11.0, "A^3": 17.20}
PAPER_TABLE_DIGITS = 2


# ---------------------------------------------------------------- lines

def line_optimum(n, interference):
    """Optimal average destination age of a reliable unicast line 1 -> n.

    parity: the last link belongs to one parity class, so it fires at most
    every other slot, and the packet it carries is at least n - 1 slots old
    on arrival: n - 1/2 (n >= 3; for n = 2 the single link fires every slot).
    single-transmitter: each fresh delivery needs n - 1 transmissions, so
    deliveries are n - 1 slots apart with age n - 1 on arrival: (3n - 4)/2.
    """
    if interference == "parity":
        if n < 3:
            raise ValueError("the parity optimum n - 1/2 holds for n >= 3")
        return n - 0.5
    if interference == "single-transmitter":
        if n < 2:
            raise ValueError("a line needs n >= 2")
        return (3 * n - 4) / 2
    raise ValueError(f"unknown interference {interference!r}")


def line_actions(n, interference):
    """Forwarding sets (tuples of senders i, each sending on i -> i+1)."""
    if interference == "parity":
        acts = [tuple(range(start, n, 2)) for start in (1, 2)]
        return [()] + [a for a in acts if a]
    return [()] + [(i,) for i in range(1, n)]


def line_cycle_average(n, schedule, periods=40):
    """Average destination age when ``schedule`` repeats forever; measured
    over the last quarter of ``periods`` repetitions."""
    inf = 10 ** 9
    held = [inf] * (n + 1)   # held[i]: age of node i's freshest packet
    held[1] = 0              # the source stamps a fresh update when it sends
    ages = []
    for _ in range(periods):
        for senders in schedule:
            nxt = [a + 1 for a in held]
            nxt[1] = 0
            for i in senders:
                if held[i] < inf:
                    nxt[i + 1] = min(nxt[i + 1], held[i] + 1)
            held = nxt
            ages.append(held[n])
    tail = ages[-(len(ages) // 4 // len(schedule)) * len(schedule):]
    return sum(tail) / len(tail)


def line_exhaustive_optimum(n, interference, max_len=4):
    """Best average destination age over every periodic schedule of length
    at most ``max_len``."""
    acts = line_actions(n, interference)
    best = None
    for length in range(1, max_len + 1):
        for sched in itertools.product(acts, repeat=length):
            v = line_cycle_average(n, sched)
            if best is None or v < best:
                best = v
    return best


# ---------------------------------------------------------------- stars

def kadota_lower_bound(weights, probs):
    """Lower bound on the long-run weighted sum of ages of a single-hop star
    with one transmission per slot (Kadota et al., IEEE/ACM ToN 2018):
    1/2 [(sum_i sqrt(w_i / p_i))^2 + sum_i w_i]."""
    root = sum(math.sqrt(w / p) for w, p in zip(weights, probs))
    return 0.5 * (root * root + sum(weights))


def star_cycle_average(weights, probs, schedule, periods=30):
    """Expected weighted sum of ages of a star under a periodic schedule of
    served sources, computed slot by slot on each source's age distribution
    (independent links; probabilities below 1e-15 are dropped)."""
    total = 0.0
    count = 0
    dists = [{1: 1.0} for _ in weights]
    for r in range(periods):
        for s in schedule:
            for i, p in enumerate(probs):
                d = {}
                for a, pa in dists[i].items():
                    if i == s:
                        d[1] = d.get(1, 0.0) + pa * p
                        if pa * (1.0 - p) > 1e-15:
                            d[a + 1] = d.get(a + 1, 0.0) + pa * (1.0 - p)
                    else:
                        d[a + 1] = d.get(a + 1, 0.0) + pa
                dists[i] = d
            if r >= periods // 2:
                total += sum(w * sum(a * pa for a, pa in d.items())
                             for w, d in zip(weights, dists))
                count += 1
    return total / count


def randomized_star_cost(weights, qs, probs):
    """Long-run weighted sum of ages under a stationary randomized policy
    that serves source i with probability q_i: each age renews with
    probability r_i = q_i p_i per slot, so E[A_i] = 1 / r_i."""
    return sum(w / (q * p) for w, q, p in zip(weights, qs, probs))


def randomized_age_variance_rate(r):
    """Asymptotic variance rate of the time average of one source's age when
    it renews with probability r per slot: T * Var(mean of T slots) ->
    Var(A) (1 + 2 sum_h (1 - r)^h) = (1 - r)(2 - r) / r^3, because
    Cov(A_t, A_t+h) = (1 - r)^h Var(A) and Var(A) = (1 - r) / r^2."""
    return (1.0 - r) * (2.0 - r) / r ** 3


def randomized_star_stderr(weights, qs, probs, horizon, runs=1):
    """Upper bound on the standard error of the mean weighted age sum over
    ``runs`` independent runs of ``horizon`` slots. Sources share one
    transmitter, so their ages are correlated; the sum of the per-source
    standard deviations bounds the deviation of the sum whatever the
    correlation (Cauchy-Schwarz)."""
    sd = sum(w * math.sqrt(randomized_age_variance_rate(q * p))
             for w, q, p in zip(weights, qs, probs))
    return sd / math.sqrt(horizon * runs)


def paper_table_cycle_values():
    """The DP table's per-source averages from the optimal period-10 cycle:
    15A and A^2 on 5-slot sawtooths, e^A and A^3 on sawtooths (3, 3, 4)."""
    def sawtooth(f, lengths):
        return sum(f(a) for L in lengths for a in range(1, L + 1)) / sum(lengths)
    vals = {
        "15A": sawtooth(lambda a: 15.0 * a, (5, 5)),
        "e^A": sawtooth(math.exp, (3, 3, 4)),
        "A^2": sawtooth(lambda a: a ** 2, (5, 5)),
        "A^3": sawtooth(lambda a: a ** 3, (3, 3, 4)),
    }
    vals["gain"] = math.fsum(vals.values())
    return vals


# ---------------------------------------------------------------- broadcast

def hop_distances(n, edges):
    """All-pairs hop distances on nodes 1..n by breadth-first search."""
    adj = {v: set() for v in range(1, n + 1)}
    for (i, j) in edges:
        adj[i].add(j)
        adj[j].add(i)
    dist = {}
    for s in adj:
        seen = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        for v, d in seen.items():
            dist[(s, v)] = d
    return dist


def broadcast_sum_bound(pairs, horizon):
    """Lower bound on the time-averaged sum of ``pairs`` ages over
    ``horizon`` slots when at most one pair is updated per slot. After slot
    t, at most m - 1 pairs can be younger than m, and a pair never updated
    is t + 2 old, so the m-th smallest age is at least min(m, t + 2). From
    slot M - 2 on, this is sum_m m = M(M + 1)/2."""
    total = 0
    for t in range(horizon):
        if t + 2 >= pairs:
            total += pairs * (pairs + 1) // 2
        else:
            total += sum(min(m, t + 2) for m in range(1, pairs + 1))
    return total / horizon


def hop_distance_bound(d, horizon):
    """Lower bound on one pair's time-averaged age: a packet needs d hops,
    one per slot, so after its first delivery the age is at least d, and
    before it the age is t + 2."""
    return sum(min(d, t + 2) for t in range(horizon)) / horizon


def _broadcast_step(held, assignment, n):
    """One slot of the broadcast model; ``held[(k, i)]`` is the age of node
    i's freshest flow-k packet (absent: none), sources hold age 0."""
    nxt = {key: a + 1 for key, a in held.items()}
    for k in range(1, n + 1):
        nxt[(k, k)] = 0
    if assignment is not None:
        tx, rx, k = assignment
        if (k, tx) in held and rx != k:
            a = held[(k, tx)] + 1
            if (k, rx) not in nxt or a < nxt[(k, rx)]:
                nxt[(k, rx)] = a
    return nxt


def broadcast_exhaustive_check(n, edges, horizon):
    """Walk every assignment sequence of ``horizon`` slots on a small graph
    and check both broadcast bounds slot by slot. Returns the smallest
    per-slot age sum seen in each slot."""
    pairs = [(k, j) for k in range(1, n + 1) for j in range(1, n + 1) if j != k]
    dist = hop_distances(n, edges)
    assigns = [None] + [(tx, rx, k) for (i, j) in edges for (tx, rx) in ((i, j), (j, i))
                        for k in range(1, n + 1) if k != rx]
    held0 = {(k, k): 0 for k in range(1, n + 1)}
    best = [None] * horizon

    def age_of(held, pair, t):
        # tracked ages start at 1, so a pair never reached is t + 2 after
        # slot t; any packet that did arrive is younger than that
        return held[pair] if pair in held else t + 2

    def walk(held, t):
        if t == horizon:
            return
        for a in assigns:
            nxt = _broadcast_step(held, a, n)
            ages = [age_of(nxt, p, t) for p in pairs]
            ages_sorted = sorted(ages)
            for m, a_m in enumerate(ages_sorted, start=1):
                if a_m < min(m, t + 2):
                    raise AssertionError(f"sum bound broken at slot {t}")
            for p, a_p in zip(pairs, ages):
                if a_p < min(dist[p], t + 2):
                    raise AssertionError(f"hop bound broken for {p} at slot {t}")
            s = sum(ages)
            if best[t] is None or s < best[t]:
                best[t] = s
            walk(nxt, t + 1)

    walk(held0, 0)
    return best


def brute_force_drift(links, ages, debts, targets, cost):
    """Expected one-slot change of the summed squared destination debts,
    enumerated over every subset of successful links.

    links: [(sender age or 0 for the source, (k, i), p)] delivering links
    ages, debts, targets: per tracked destination pair (k, i)
    cost: f(age) for every pair
    """
    total = 0.0
    for outcome in itertools.product((False, True), repeat=len(links)):
        w = 1.0
        best = {}
        for ok, (g, pair, p) in zip(outcome, links):
            w *= p if ok else 1.0 - p
            if ok and (pair not in best or g < best[pair]):
                best[pair] = g
        if w == 0.0:
            continue
        change = 0.0
        for pair, a in ages.items():
            nxt = a + 1 if pair not in best else min(a, best[pair]) + 1
            q = debts[pair]
            nq = max(q + cost(nxt) - targets[pair], 0.0)
            change += nq * nq - q * q
        total += w * change
    return total


# ---------------------------------------------------------------- graphs

def is_connected(n, edges):
    """True iff the graph on nodes 1..n is connected."""
    dist = hop_distances(n, edges)
    return all((1, v) in dist for v in range(1, n + 1))


def canonical_form(n, edges):
    """Isomorphism-invariant form of a graph on nodes 1..n: the smallest
    sorted edge list over all relabelings."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        form = tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for (i, j) in edges))
        if best is None or form < best:
            best = form
    return best


def count_connected_classes(n):
    """Connected graphs on n unlabeled nodes, by exhaustive enumeration."""
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    forms = set()
    for mask in range(1 << len(all_edges)):
        edges = [e for b, e in enumerate(all_edges) if mask >> b & 1]
        if is_connected(n, edges):
            forms.add(canonical_form(n, edges))
    return len(forms)


# ---------------------------------------------------------------- self-tests

def selftest():
    """Check every reference on a case solved by hand or exhaustively.
    Returns a list of failure messages (empty when all hold)."""
    fails = []

    def expect(cond, msg):
        if not cond:
            fails.append(msg)

    for n in (3, 4, 5):
        got = line_exhaustive_optimum(n, "parity")
        expect(abs(got - line_optimum(n, "parity")) < 1e-9,
               f"parity line n={n}: exhaustive {got} != {line_optimum(n, 'parity')}")
    for n in (2, 3, 4):
        got = line_exhaustive_optimum(n, "single-transmitter")
        ref = line_optimum(n, "single-transmitter")
        expect(abs(got - ref) < 1e-9, f"single-transmitter line n={n}: exhaustive {got} != {ref}")

    # Kadota bound: tight on the reliable 2-source round robin (ages 1, 2),
    # and below every periodic schedule of a weighted unreliable pair.
    expect(abs(kadota_lower_bound([1, 1], [1, 1]) - 3.0) < 1e-12, "Kadota bound, 2 unit sources")
    w, p = [1.0, 4.0], [1.0, 0.5]
    lb = kadota_lower_bound(w, p)
    best = min(star_cycle_average(w, p, s) for L in range(1, 7)
               for s in itertools.product((0, 1), repeat=L))
    expect(lb <= best, f"Kadota bound {lb} above the best periodic schedule {best}")

    # Randomized star: stationary age distribution r (1 - r)^(a - 1) summed
    # numerically; variance rate against the covariance series.
    for r in (0.3, 0.07):
        mean = sum(a * r * (1 - r) ** (a - 1) for a in range(1, 20000))
        expect(abs(mean - randomized_star_cost([1.0], [1.0], [r])) < 1e-9,
               f"randomized mean age at r={r}")
        var = sum(a * a * r * (1 - r) ** (a - 1) for a in range(1, 20000)) - mean * mean
        series = var * (1 + 2 * sum((1 - r) ** h for h in range(1, 20000)))
        expect(abs(series - randomized_age_variance_rate(r)) < 1e-6 * series,
               f"randomized variance rate at r={r}")

    vals = paper_table_cycle_values()
    for key, v in PAPER_TABLE.items():
        expect(round(vals[key], PAPER_TABLE_DIGITS) == v,
               f"paper table {key}: cycle value {vals[key]} does not print as {v}")

    # Broadcast bounds on every assignment sequence of tiny graphs; on two
    # nodes the alternating schedule meets the sum bound 3 in every slot.
    try:
        best = broadcast_exhaustive_check(2, [(1, 2)], 6)
        expect(best == [3] * 6, f"two-node broadcast minimum per slot {best}")
        expect(broadcast_sum_bound(2, 6) == min(best) == 3, "two-pair sum bound")
        broadcast_exhaustive_check(3, [(1, 2), (2, 3)], 4)
    except AssertionError as exc:
        fails.append(f"broadcast bounds: {exc}")

    # Brute-force drift, worked by hand: one link p = 1/2 into a pair at age
    # 3 with Q = 2, alpha = 1, f(A) = A: 1/2 (2^2 - 2^2) + 1/2 (5^2 - 2^2).
    pair = (1, 2)
    d = brute_force_drift([(0, pair, 0.5)], {pair: 3}, {pair: 2.0}, {pair: 1.0}, float)
    expect(abs(d - 10.5) < 1e-12, f"brute-force drift {d} != 10.5")
    # Two links into one pair: the freshest success wins.
    d = brute_force_drift([(0, pair, 0.5), (1, pair, 0.5)], {pair: 3}, {pair: 2.0},
                          {pair: 1.0}, float)
    ref = 0.5 * (4 - 4) + 0.25 * (9 - 4) + 0.25 * (25 - 4)
    expect(abs(d - ref) < 1e-12, f"two-link brute-force drift {d} != {ref}")

    for n in range(1, 5):
        got = count_connected_classes(n)
        expect(got == CONNECTED_GRAPH_CLASSES[n],
               f"connected classes n={n}: {got} != {CONNECTED_GRAPH_CLASSES[n]}")
    return fails


if __name__ == "__main__":
    problems = selftest()
    for msg in problems:
        print("FAIL", msg)
    print("refs self-test:", "ok" if not problems else f"{len(problems)} failures")
    raise SystemExit(1 if problems else 0)
