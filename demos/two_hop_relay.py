"""Why destination debt alone fails in multihop networks.

Three nodes in a line; node 1 unicasts to node 3 through relay 2; one edge
may be active per slot. With only the destination's debt queue, no single
slot's action changes that queue while the relay is empty, so a drift
minimizer that breaks ties toward the downstream edge never moves a packet
and the queue diverges. Adding a debt queue at the relay (charging the most
optimistic deliverable cost when it forwards) restores the alternating
schedule whose average age, 2.5, is optimal.
"""

from aoisim import SimConfig, gen_line, run

instance, cost_fns = gen_line(3, interference="single-transmitter")
a, b = ((1, 2, 1),), ((2, 3, 1),)
print("action space:", instance.action_space)

print("\ndestination-only debt, ties broken toward the downstream edge:")
for horizon in (1_000, 10_000):
    m = run(instance, cost_fns,
            SimConfig(horizon=horizon, seed=0, policy="age-debt",
                      policy_params={"variant": "exact"}, targets=3.0,
                      tie_break="last", use_intermediate_queues=False))
    rate = m.per_pair_debt_rate[(1, 3)]
    print(f"  T={horizon:>6}: Q(T)/T = {rate:>7.1f}  (grows like T/2: starved)")

print("\nwith the relay's debt queue enabled:")
m = run(instance, cost_fns,
        SimConfig(horizon=100_000, seed=0, policy="age-debt",
                  policy_params={"variant": "exact"}, targets=2.5,
                  tie_break="freshest", use_intermediate_queues=True))
print(f"  T=100000: average age at node 3 = {m.per_pair_cost[(1, 3)]:.5f} "
      f"(optimal alternation gives 2.5)")
print(f"  Q(T)/T = {m.per_pair_debt_rate[(1, 3)]:.5f}, "
      f"peak debt {m.max_sum_debt:.2f}: stable at the critical target")
