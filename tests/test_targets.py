import numpy as np
import pytest

from aoisim import (CostFunction, FlowControlConfig, GradientDescentConfig, SimConfig,
                    gd_epoch_update, gen_star, run)
from row_reference import flow_control_update


def gd_cfg(**kw):
    base = dict(epoch_length=100, step=1.0, threshold=0.1, initial=5.0)
    base.update(kw)
    return GradientDescentConfig(**base)


def test_gd_bumps_only_unstable_pairs():
    cfg = gd_cfg(epoch_length=100, threshold=0.1, step=0.5)
    targets = {(1, 9): 4.0, (2, 9): 6.0}
    debt = {(1, 9): 15.0, (2, 9): 3.0}  # threshold is 0.1 * 100 = 10
    out = gd_epoch_update(targets, debt, cfg)
    assert out == {(1, 9): 4.5, (2, 9): 6.0}


def test_gd_all_quiet_lowers_everything():
    cfg = gd_cfg(step=0.25)
    out = gd_epoch_update({(1, 9): 4.0, (2, 9): 6.0}, {(1, 9): 0.0, (2, 9): 0.0}, cfg)
    assert out == {(1, 9): 3.75, (2, 9): 5.75}


def test_gd_floor_applies():
    cfg = gd_cfg(step=2.0)
    out = gd_epoch_update({(1, 9): 1.5}, {(1, 9): 0.0}, cfg, floor={(1, 9): 1.0})
    assert out == {(1, 9): 1.0}


def test_gd_step_is_exactly_zero_plus_or_minus_eta():
    rng = np.random.default_rng(0)
    cfg = gd_cfg(step=0.3, threshold=0.2, epoch_length=50)
    for _ in range(200):
        targets = {(k, 9): float(rng.uniform(0, 10)) for k in (1, 2, 3)}
        debt = {p: float(rng.uniform(0, 20)) for p in targets}
        out = gd_epoch_update(targets, debt, cfg)
        unstable = {p for p, q in debt.items() if q > 0.2 * 50}
        for p in targets:
            if unstable:
                assert out[p] == (targets[p] + 0.3 if p in unstable else targets[p])
            else:
                assert out[p] == targets[p] - 0.3


def test_gd_single_source_descends_to_serve_always_optimum():
    # reliable single source, linear cost: achievable floor is f(1) = 1;
    # targets descend until they hover near it with O(step) oscillation
    inst, costs = gen_star(2, weight_rule="unit", reliability_rule="reliable")
    cfg = SimConfig(
        horizon=6000, seed=0, policy="age-debt", target_mode="gradient-descent",
        gradient_descent=GradientDescentConfig(
            epoch_length=200, step=0.5, threshold=0.05, initial=6.0))
    m = run(inst, costs, cfg)
    trajectory = [h[(1, 2)] for h in m.target_history]
    assert trajectory[0] == 6.0
    tail = trajectory[-8:]
    assert all(0.9 <= a <= 2.1 for a in tail)  # hovers near 1 within ~2 steps
    assert max(tail) - min(tail) <= 1.0 + 1e-9  # oscillation of order eta


def rule(debt_now, cfg):
    """The threshold rule's targets for every pair of ``debt_now``; the
    update writes targets in place, by row, and a pair serves as a row."""
    targets = {}
    flow_control_update(debt_now, targets, list(debt_now), cfg)
    return targets


def test_flow_control_threshold_rule():
    cfg = FlowControlConfig(V=10.0, alpha_max=50.0)
    assert rule({(1, 9): 12.0}, cfg) == {(1, 9): 50.0}
    assert rule({(1, 9): 10.0}, cfg) == {(1, 9): 1.0}  # boundary
    assert rule({(1, 9): 0.0}, cfg) == {(1, 9): 1.0}
    # rows outside ``rows`` keep their targets
    targets = [7.0, 7.0]
    flow_control_update([12.0, 12.0], targets, [1], cfg)
    assert targets == [7.0, 50.0]


def test_flow_control_output_always_extreme():
    rng = np.random.default_rng(1)
    cfg = FlowControlConfig(V=7.0, alpha_max=33.0)
    for _ in range(100):
        debt = {(k, 9): float(rng.uniform(0, 20)) for k in range(1, 6)}
        out = rule(debt, cfg)
        assert set(out.values()) <= {1.0, 33.0}


def closed_form_matches_program(debt_now, cfg, grid_points=1000):
    """Check that the threshold rule solves the per-pair boxed linear program
    min (V - Q) * alpha over alpha in [1, alpha_max].

    The per-pair objective V*alpha - alpha*Q is linear in alpha, so the
    minimum sits at a box corner; a fine grid over the box must not beat the
    rule's choice.
    """
    chosen_alpha = rule(debt_now, cfg)
    lo, hi = 1.0, cfg.alpha_max
    step = (hi - lo) / max(grid_points - 1, 1)
    for pair, q in debt_now.items():
        coeff = cfg.V - q
        chosen = coeff * chosen_alpha[pair]
        best = min(coeff * (lo + step * g) for g in range(grid_points))
        if chosen > best + 1e-12 * max(1.0, abs(best)):
            return False
    return True


def test_closed_form_solves_boxed_program():
    cfg = FlowControlConfig(V=10.0, alpha_max=50.0)
    assert closed_form_matches_program({(1, 9): 3.0, (2, 9): 40.0}, cfg)
    assert closed_form_matches_program({(1, 9): 10.0}, cfg)  # tie at Q == V


def test_config_validation():
    with pytest.raises(ValueError):
        FlowControlConfig(V=0.0, alpha_max=10.0)
    with pytest.raises(ValueError):
        FlowControlConfig(V=1.0, alpha_max=0.5)
    with pytest.raises(ValueError):
        GradientDescentConfig(epoch_length=0, step=0.1, threshold=0.1)
    with pytest.raises(ValueError):
        GradientDescentConfig(epoch_length=1, step=-0.1, threshold=0.1)
    # NaN fails every range check
    nan = float("nan")
    with pytest.raises(ValueError, match="V must be"):
        FlowControlConfig(V=nan, alpha_max=10.0)
    with pytest.raises(ValueError, match="alpha_max must be"):
        FlowControlConfig(V=1.0, alpha_max=nan)
    with pytest.raises(ValueError, match="step and threshold"):
        GradientDescentConfig(epoch_length=1, step=nan, threshold=0.1)
    # inf passes a lower bound but breaks a run: at V or alpha_max inf every
    # pair reads stable, at step inf the targets turn NaN
    inf = float("inf")
    with pytest.raises(ValueError, match="V must be finite"):
        FlowControlConfig(V=inf, alpha_max=10.0)
    with pytest.raises(ValueError, match="alpha_max must be finite"):
        FlowControlConfig(V=1.0, alpha_max=inf)
    for step, threshold in ((inf, 0.1), (0.1, inf)):
        with pytest.raises(ValueError, match="step and threshold must be finite"):
            GradientDescentConfig(epoch_length=1, step=step, threshold=threshold)
    # a fractional epoch length never meets an integer slot, and a bool is
    # not an integer
    for epoch_length in (2.5, True):
        with pytest.raises(ValueError, match="epoch_length must be an integer"):
            GradientDescentConfig(epoch_length=epoch_length, step=0.1, threshold=0.1)
