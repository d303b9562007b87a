"""Learning targets by epoch-level gradient descent.

Two sources with different weights share one reliable hub link. Every epoch
of 500 slots (the horizon sets their number: 80) the debt queues restart at
zero; targets of pairs whose queues overflowed the threshold move up, and
when everything stays quiet all targets move down. The trajectory descends
until it hovers around the smallest achievable average costs, oscillating by
about one step size.
"""

from aoisim import GradientDescentConfig, SimConfig, gen_star, run

instance, cost_fns = gen_star(3, weight_rule="unit", reliability_rule="reliable")

cfg = SimConfig(
    horizon=40_000, seed=0, policy="age-debt",
    target_mode="gradient-descent",
    gradient_descent=GradientDescentConfig(
        epoch_length=500, step=0.25, threshold=0.05, initial=8.0))
metrics = run(instance, cost_fns, cfg)

print("epoch-by-epoch targets (alternating optimum averages are 1.5 each):")
history = metrics.target_history
for e in range(0, len(history), 8):
    alphas = history[e]
    print(f"  epoch {e:>3}: alpha_1 = {alphas[(1, 3)]:.2f}, "
          f"alpha_2 = {alphas[(2, 3)]:.2f}")
final = history[-1]
print(f"final: alpha_1 = {final[(1, 3)]:.2f}, alpha_2 = {final[(2, 3)]:.2f}")
print(f"realized averages: "
      f"{ {p: round(v, 3) for p, v in metrics.per_pair_cost.items()} }")
