import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisim import (CostFunction, DebtState, SimConfig, advance_age, restricted_hop_distance, run,
                    update_destination_debt, update_intermediate_debt)
from aoisim.network import adjacency_map, bfs_distances
from conftest import lyapunov
from dict_reference import initial_age, initial_buffer, initial_debt


# ---------------- age advance ----------------

def test_delivery_min_rule():
    age = [7]
    stamp = [-1]
    t = 50
    nxt = advance_age(age, stamp, [(0, t - 2)], t)
    assert nxt[0] == min(7, 2) + 1 == 3
    assert stamp[0] == t - 2


def test_no_delivery_increments():
    assert advance_age([3], [-1], [], 9)[0] == 4


def test_same_slot_generation_resets_to_one():
    # single-hop delivery generated this slot
    nxt = advance_age([12], [-1], [(0, 7)], 7)
    assert nxt[0] == 1


def test_causality_violation_rejected():
    with pytest.raises(ValueError, match="causality"):
        advance_age([3], [-1], [(0, 8)], 7)


def test_buffer_keeps_freshest_only():
    stamp = [40]
    advance_age([5], stamp, [(0, 38)], 42)  # staler than held
    assert stamp[0] == 40
    advance_age([5], stamp, [(0, 41)], 42)
    assert stamp[0] == 41


def test_two_deliveries_same_slot_use_freshest():
    nxt = advance_age([9], [-1], [(0, 10), (0, 14)], 20)
    assert nxt[0] == min(9, 20 - 14) + 1


# ---------------- destination debt ----------------
# the phase functions index their state by row; dicts keyed by pair serve
# as rows here

PAIR = [(1, 2)]


def cost_map(**kw):
    return {(1, 2): CostFunction.linear(kw.get("w", 1.0))}


def test_debt_clamps_at_zero():
    debt = {(1, 2): 0.0}
    update_destination_debt(debt, cost_map(w=5.0), {(1, 2): 1}, {(1, 2): 10.0}, PAIR)
    assert debt[(1, 2)] == 0.0


def test_debt_direct_formula():
    debt = {(1, 2): 4.0}
    priced = update_destination_debt(debt, cost_map(w=1.0), {(1, 2): 5}, {(1, 2): 3.0}, PAIR)
    assert debt[(1, 2)] == 6.0
    assert priced == [5.0]


def test_never_served_debt_grows_like_arithmetic_series():
    # oracle: Q(T) = sum_{t=1..T} (A(t) - alpha) with A(t) = t + 1, no clamping
    alpha = 2.0
    T = 400
    debt = {(1, 2): 0.0}
    age = {(1, 2): 1}
    expected = 0.0
    for t in range(T):
        age = {(1, 2): age[(1, 2)] + 1}
        update_destination_debt(debt, cost_map(), age, {(1, 2): alpha}, PAIR)
        expected = max(0.0, expected + age[(1, 2)] - alpha)
    oracle = sum((t + 1) - alpha for t in range(1, T + 1))  # all increments positive
    assert debt[(1, 2)] == pytest.approx(expected)
    assert debt[(1, 2)] == pytest.approx(oracle)
    assert debt[(1, 2)] / T > T / 4  # Q(T)/T diverges linearly


# ---------------- restricted hop distance ----------------

def walk_oracle(node_count, edges, i, j, first_hops, limit):
    """Shortest first-hop-constrained walk by explicit frontier expansion."""
    adj = adjacency_map(node_count, edges)
    frontier = {rx for (tx, rx) in first_hops}
    if j in frontier:
        return 1
    steps = 1
    while steps < limit:
        frontier = {w for v in frontier for w in adj[v]}
        steps += 1
        if j in frontier:
            return steps
    return None


def test_adjacent_first_hop():
    adj = adjacency_map(3, [(1, 2), (2, 3)])
    assert restricted_hop_distance(adj, 2, 3, [(2, 3)]) == 1


def test_backwards_first_hop_walks_back():
    # 1-2-3 line: first hop 2->1 forces the walk 2->1->2->3
    adj = adjacency_map(3, [(1, 2), (2, 3)])
    assert restricted_hop_distance(adj, 2, 3, [(2, 1)]) == 3
    assert walk_oracle(3, [(1, 2), (2, 3)], 2, 3, [(2, 1)], 10) == 3


def test_unreachable_returns_none():
    adj = adjacency_map(4, [(1, 2), (3, 4)])
    assert restricted_hop_distance(adj, 1, 3, [(1, 2)]) is None


def test_wrong_tail_rejected():
    adj = adjacency_map(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        restricted_hop_distance(adj, 2, 3, [(1, 2)])


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    tree = [(draw(st.integers(min_value=1, max_value=v - 1)), v)
            for v in range(2, n + 1)]
    import itertools
    extras = draw(st.sets(st.sampled_from(
        list(itertools.combinations(range(1, n + 1), 2))), max_size=5))
    return n, sorted({tuple(sorted(e)) for e in tree} | extras)


@given(connected_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_all_edges_first_hop_equals_bfs(params, data):
    n, edges = params
    adj = adjacency_map(n, edges)
    i = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=1, max_value=n).filter(lambda x: x != i))
    all_hops = [(i, v) for v in adj[i]]
    if not all_hops:
        return
    d = restricted_hop_distance(adj, i, j, all_hops)
    assert d == bfs_distances(adj, i).get(j)
    # a singleton restriction can only be worse
    single = restricted_hop_distance(adj, i, j, [all_hops[0]])
    assert single is None or single >= d
    # and matches the explicit walk oracle
    assert single == walk_oracle(n, edges, i, j, [all_hops[0]], 3 * n)


# ---------------- intermediate debt ----------------

# the two-hop line's one relay queue (1, 3, 2): destination position 0 in
# the slot's priced costs, destination (1, 3), relay (1, 2)
RELAYS = [(0, (1, 3), (1, 2))]
TWO_HOP_TARGETS = {(1, 3): 3.0}


def two_hop_state():
    cost_fns = {(1, 3): CostFunction.linear(1.0)}
    adj = adjacency_map(3, [(1, 2), (2, 3)])
    return cost_fns, adj


def test_case1_forwarding_fresh_packet_decreases():
    # relay forwards a fresh packet; forwarding charges f(min(1,9)+1) - 3 = -1
    cost_fns, adj = two_hop_state()
    relay_debt = [5.0]
    age = {(1, 3): 9, (1, 2): 1}
    hops = [restricted_hop_distance(adj, 2, 3, [(2, 3)])]
    priced = [cost_fns[(1, 3)](10)]  # destination's next age is 10
    update_intermediate_debt(relay_debt, RELAYS, hops, age, 20, cost_fns,
                             TWO_HOP_TARGETS, priced)
    assert relay_debt == [4.0]


def test_case2_idle_tracks_destination_cost():
    cost_fns, _ = two_hop_state()
    relay_debt = [0.0]
    age = {(1, 3): 9, (1, 2): 9}
    priced = [cost_fns[(1, 3)](10)]  # destination's next age is 10
    update_intermediate_debt(relay_debt, RELAYS, [None], age, 20, cost_fns,
                             TWO_HOP_TARGETS, priced)
    assert relay_debt == [7.0]


def test_case2_reuses_the_slot_prices():
    # without a forwarded packet, every queue takes the destination's price
    # from the slot's priced costs and prices nothing itself; a relay that
    # never received a packet is t + 1 old and forwards nothing
    class Unpriced:
        def __getitem__(self, age):
            raise AssertionError(f"priced age {age} again")

    tables = {(1, 3): Unpriced()}
    for hops, age in (([None], {(1, 3): 9, (1, 2): 9}), ([1], {(1, 3): 9, (1, 2): 21})):
        relay_debt = [0.0]
        update_intermediate_debt(relay_debt, RELAYS, hops, age, 20, tables,
                                 TWO_HOP_TARGETS, [10.0])
        assert relay_debt == [7.0]


def test_relay_holds_a_packet_iff_its_age_is_at_most_t():
    # a relay that got the packet stamped at slot 0 is t old at slot t and
    # forwards it (case 1); one that never received is t + 1 old (case 2)
    cost_fns, adj = two_hop_state()
    hops = [restricted_hop_distance(adj, 2, 3, [(2, 3)])]
    t = 20
    for relay_age, expected in ((t, 5.0 + 21.0 - 3.0), (t + 1, 5.0 + 10.0 - 3.0)):
        relay_debt = [5.0]
        update_intermediate_debt(relay_debt, RELAYS, hops, {(1, 3): 30, (1, 2): relay_age}, t,
                                 cost_fns, TWO_HOP_TARGETS, [10.0])
        assert relay_debt == [expected]


def test_forwarding_without_packet_is_case2(two_hop, monkeypatch):
    # run() charges case 1 only for a relay that holds a packet: under
    # "last" the relay is scheduled in every slot but never receives one, so
    # its queue takes the shadowing update; under "freshest" it does forward.
    # Case 1 is the update's only cost lookup.
    import aoisim.sim
    update = aoisim.sim.update_intermediate_debt
    seen = []

    class Recording:
        def __init__(self, tab, looked):
            self.tab = tab
            self.looked = looked

        def __getitem__(self, age):
            self.looked.append(age)
            return self.tab[age]

    def spy(relay_debt, relays, hops, age, t, tables, *rest):
        looked = []
        update(relay_debt, relays, hops, age, t,
               [None if tab is None else Recording(tab, looked) for tab in tables], *rest)
        seen.append(bool(looked))

    monkeypatch.setattr(aoisim.sim, "update_intermediate_debt", spy)
    instance, cost_fns = two_hop
    for tie_break in ("last", "freshest"):
        seen.clear()
        run(instance, cost_fns, SimConfig(horizon=50, seed=0, targets=2.5, tie_break=tie_break,
                                          policy_params={"variant": "exact"}))
        assert len(seen) == 50
        assert any(seen) == (tie_break == "freshest")


def test_broadcast_flow_has_no_intermediate_queues():
    from aoisim import make_instance
    ring = {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0}
    inst = make_instance(3, ring, [(1, {2, 3})])
    debt = initial_debt(inst)
    assert debt.intermediate == {}


# ---------------- lyapunov ----------------

def test_lyapunov_values():
    assert lyapunov(DebtState()) == 0.0
    assert lyapunov(DebtState(dest={(1, 9): 3.0, (2, 9): 4.0})) == 25.0
    assert lyapunov(DebtState(dest={(1, 3): 2.0},
                              intermediate={(1, 3, 2): 3.0})) == 13.0


# ---------------- queue path properties ----------------

@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_queue_bounds_on_random_traces(ages, alpha):
    f = CostFunction.linear(1.0)
    debt = {(1, 2): 0.0}
    upper = 0.0
    lower = 0.0
    for a in ages:
        update_destination_debt(debt, {(1, 2): f}, {(1, 2): a}, {(1, 2): alpha}, PAIR)
        upper += max(0.0, f(a) - alpha)
        lower += f(a) - alpha
    q = debt[(1, 2)]
    assert lower - 1e-9 <= q <= upper + 1e-9


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=100))
@settings(max_examples=40, deadline=None)
def test_debt_increments_bounded_by_cap(ages):
    cap = 50.0
    alpha = 7.0
    f = CostFunction.power(3, cap=cap)
    debt = {(1, 2): 0.0}
    prev = 0.0
    for a in ages:
        update_destination_debt(debt, {(1, 2): f}, {(1, 2): a}, {(1, 2): alpha}, PAIR)
        q = debt[(1, 2)]
        assert -alpha - 1e-9 <= q - prev <= cap - alpha + 1e-9
        prev = q


def test_initial_state_helpers(two_hop):
    instance, _ = two_hop
    age = initial_age(instance.tracked_pairs())
    assert age == {(1, 3): 1, (1, 2): 1}
    buf = initial_buffer(instance.flows)
    assert buf == {(1, 1): -1}
    debt = initial_debt(instance)
    assert debt.dest == {(1, 3): 0.0}
    assert debt.intermediate == {(1, 3, 2): 0.0}
