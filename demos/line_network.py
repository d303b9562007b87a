"""Unicast over a line: age-debt flow control vs. tuned stationary policies.

Node 1 streams updates to node N along a chain. Two interference models:
"parity" lets all odd- or all even-numbered nodes forward simultaneously;
"single-transmitter" allows one link at a time. The stationary randomized
baseline is tuned by direct search on simulated cost; flow-control age-debt
needs no tuning and beats it by a growing factor, because a fixed activation
distribution cannot pipeline packets the way state-driven scheduling can.
"""

import numpy as np

from aoisim import (FlowControlConfig, SimConfig, gen_line,
                    optimize_randomized, run)

HORIZON = 30_000

for interference in ("parity", "single-transmitter"):
    print(f"\n--- {interference} interference ---")
    print(f"{'N':>3} {'flow-control AD':>16} {'tuned randomized':>17} {'factor':>7}")
    for n in range(3, 9):
        instance, cost_fns = gen_line(n, interference=interference)
        tuned = optimize_randomized(instance, cost_fns, search_budget=120,
                                    rng=np.random.default_rng(0), horizon=2000)
        rnd = run(instance, cost_fns,
                  SimConfig(horizon=HORIZON, seed=0, policy="randomized",
                            policy_params={"probabilities": tuned.probabilities}))
        fc = run(instance, cost_fns,
                 SimConfig(horizon=HORIZON, seed=0, policy="age-debt",
                           target_mode="flow-control",
                           flow_control=FlowControlConfig(V=10.0,
                                                          alpha_max=4.0 * n)))
        print(f"{n:>3} {fc.sum_cost:>16.3f} {rnd.sum_cost:>17.3f} "
              f"{rnd.sum_cost / fc.sum_cost:>7.2f}")
