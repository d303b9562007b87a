import hashlib
import itertools
import threading

import numpy as np
import pytest

import aoisim.dp
from aoisim import (ConvergenceError, CostFunction, StateSpaceError,
                    dp_optimal, export_table, gen_line, gen_star, make_instance)
from aoisim.age import row_plan
from dict_reference import action_for, state_index


def test_single_source_serves_every_slot():
    inst, costs = gen_star(2, weight_rule="unit", reliability_rule="reliable")
    sol = dp_optimal(inst, costs, a_cap=8, tolerance=1e-6)
    assert sol.gain == pytest.approx(1.0, abs=1e-5)
    assert sol.per_pair_average[(1, 2)] == pytest.approx(1.0)
    # from every recurrent state the policy serves the only source
    assert action_for(sol, {(1, 2): 1}) == 1


def exhaustive_two_source_oracle(a_cap=4):
    """Brute force over every stationary deterministic policy on the capped
    two-age state space; evaluate each by following its deterministic closed
    loop to a cycle and averaging the summed cost over the cycle."""
    states = list(itertools.product(range(1, a_cap + 1), repeat=2))
    best = None
    n = len(states)
    for assignment in itertools.product((1, 2), repeat=n):
        policy = dict(zip(states, assignment))
        s = (1, 1)
        seen = {}
        path = []
        while s not in seen:
            seen[s] = len(path)
            path.append(s)
            serve = policy[s]
            a1, a2 = s
            s = (1 if serve == 1 else min(a1 + 1, a_cap),
                 1 if serve == 2 else min(a2 + 1, a_cap))
        cycle = path[seen[s]:]
        avg = sum(a + b for (a, b) in cycle) / len(cycle)
        if best is None or avg < best:
            best = avg
    return best


def test_two_symmetric_sources_alternate_gain_three():
    oracle = exhaustive_two_source_oracle(a_cap=4)
    assert oracle == pytest.approx(3.0)
    inst, costs = gen_star(3, weight_rule="unit", reliability_rule="reliable")
    sol = dp_optimal(inst, costs, a_cap=8, tolerance=1e-6)
    assert sol.gain == pytest.approx(oracle, abs=1e-4)
    assert sol.per_pair_average[(1, 3)] == pytest.approx(1.5)
    assert sol.per_pair_average[(2, 3)] == pytest.approx(1.5)


def test_gain_invariant_to_cap_increase():
    inst, costs = gen_star(3, reliability_rule="reliable")  # weights 1/3, 2/3
    g1 = dp_optimal(inst, costs, a_cap=8, tolerance=1e-6).gain
    g2 = dp_optimal(inst, costs, a_cap=14, tolerance=1e-6).gain
    assert g1 == pytest.approx(g2, abs=1e-4)


def test_unreliable_single_source_gain():
    # geometric service time: E[A] = 1/p, E[cost] = E[A] = 1/p for linear cost
    inst = make_instance(2, {(1, 2): 0.5}, [(1, {2})], eligibility="path")
    costs = {(1, 2): CostFunction.linear(1.0)}
    sol = dp_optimal(inst, costs, a_cap=64, tolerance=1e-5)
    assert sol.gain == pytest.approx(2.0, abs=0.01)
    assert sol.per_pair_average[(1, 2)] == pytest.approx(2.0, abs=0.05)


def test_unreliable_per_pair_averages_sum_to_gain():
    # heavy-tailed costs on unreliable links: the per-pair averages come from
    # the closed loop's exact stationary distribution, so they add up to the
    # gain within the gain's own tolerance
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0),
                           cost_rule="functions-of-age")
    sol = dp_optimal(inst, costs, a_cap=12, tolerance=1e-4)
    assert sum(sol.per_pair_average.values()) == pytest.approx(sol.gain, abs=1e-4)


def test_span_history_records_every_sweep(monkeypatch):
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    sol = dp_optimal(inst, costs, a_cap=10, tolerance=1e-5)
    assert len(sol.span_history) == sol.iterations
    assert sol.span_history[-1] == sol.residual_span < 1e-5
    # the sweeps stop at the first span below the tolerance
    assert min(sol.span_history[:-1]) >= 1e-5
    monkeypatch.setattr(aoisim.dp, "MAX_ITER", sol.iterations - 1)
    with pytest.raises(ConvergenceError, match="not converged"):
        dp_optimal(inst, costs, a_cap=10, tolerance=1e-5)


def test_state_space_guard(monkeypatch):
    monkeypatch.setattr(aoisim.dp, "STATE_CAP", 10_000)
    inst, costs = gen_star(6, reliability_rule="reliable")
    with pytest.raises(StateSpaceError, match="state space too large"):
        dp_optimal(inst, costs, a_cap=30)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(aoisim.dp, "MAX_ITER", 3)
    inst, costs = gen_star(3, reliability_rule="reliable")
    with pytest.raises(ConvergenceError, match="not converged"):
        dp_optimal(inst, costs, a_cap=8, tolerance=1e-9)
    # value iteration converges in 50 steps here; the lazy power iteration for
    # the stationary distribution needs more
    monkeypatch.setattr(aoisim.dp, "MAX_ITER", 60)
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0),
                           cost_rule="functions-of-age")
    with pytest.raises(ConvergenceError, match="stationary distribution not converged"):
        dp_optimal(inst, costs, a_cap=12, tolerance=1e-4)


@pytest.mark.parametrize("kwargs, match", [
    ({"a_cap": 0}, "a_cap must be at least 1"),
    ({"a_cap": -3}, "a_cap must be at least 1"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": -1e-3}, "tolerance must be positive"),
    ({"tolerance": float("nan")}, "tolerance must be positive"),
    ({"a_cap": 2.5}, "a_cap must be an integer"),  # numpy would raise its own TypeError
    ({"a_cap": True}, "a_cap must be an integer"),
])
def test_arguments_that_can_only_spin_fail_fast(kwargs, match):
    # raised before any work: a_cap < 1 leaves no state, and with a
    # tolerance that is not positive the sweeps would run to MAX_ITER
    # without the span going below it
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        dp_optimal(inst, costs, **kwargs)


@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="the lazy power iteration stalls above its 1e-10 L1 step "
                          "on nearly reliable stars (1.3e-5 after 30 000 steps)")
def test_nearly_reliable_star_reaches_its_stationary_distribution():
    # reliabilities 0.977, 0.805 and 0.990: value iteration converges, then
    # the stationary stage hits its iteration cap
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(4))
    costs = {pair: CostFunction.power(1.5) for pair in costs}
    tolerance = 1e-3
    sol = dp_optimal(inst, costs, a_cap=8, tolerance=tolerance)
    assert sum(sol.per_pair_average.values()) == pytest.approx(sol.gain, abs=tolerance)


def _split(monkeypatch, threads=2):
    """Cut the states into one leading-axis index per slab and solve them on
    ``threads`` threads, whatever this machine's CPU count."""
    monkeypatch.setattr(aoisim.dp, "_SLAB_STATES", 1)
    monkeypatch.setattr(aoisim.dp, "_THREADS", threads)


def _solve_within(seconds, *args, **kwargs):
    """``dp_optimal(*args, **kwargs)`` on a helper thread that must finish
    within ``seconds``, so that a deadlock fails the test instead of hanging
    it. Returns the solution, or raises the solve's error."""
    done = {}

    def solve():
        try:
            done["sol"] = dp_optimal(*args, **kwargs)
        except Exception as exc:  # handed to the test below
            done["exc"] = exc

    helper = threading.Thread(target=solve, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"solve still running after {seconds} s"
    if "exc" in done:
        raise done["exc"]
    return done["sol"]


def test_solve_joins_its_threads(monkeypatch):
    _split(monkeypatch)
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    alive = []
    stationary = aoisim.dp._stationary_averages

    def spy(*args):
        alive.append(len(threading.enumerate()))
        return stationary(*args)

    monkeypatch.setattr(aoisim.dp, "_stationary_averages", spy)
    before = threading.enumerate()
    dp_optimal(inst, costs, a_cap=8, tolerance=1e-4)
    assert alive == [len(before) + 1]  # the caller and one worker
    assert threading.enumerate() == before


def test_solve_that_does_not_converge_joins_its_threads(monkeypatch):
    _split(monkeypatch)
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    before = threading.enumerate()
    monkeypatch.setattr(aoisim.dp, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="1 iterations"):
        dp_optimal(inst, costs, a_cap=8, tolerance=1e-12)
    assert threading.enumerate() == before


class Boom(RuntimeError):
    pass


def _record_caller(monkeypatch):
    """The list that will hold the thread that calls value iteration: the
    caller of the solve, which values state 0 and sweeps the first part."""
    callers = []
    rvi = aoisim.dp._relative_value_iteration

    def record(*args):
        callers.append(threading.current_thread())
        return rvi(*args)

    monkeypatch.setattr(aoisim.dp, "_relative_value_iteration", record)
    return callers


@pytest.mark.parametrize("body", ["sweep", "settle", "step"])
def test_worker_error_reraises_in_the_caller(monkeypatch, body):
    # a failure on a worker thread, in a value-iteration sweep, the policy
    # pass or a stationary step, reaches the caller once every part is done
    _split(monkeypatch)
    callers = _record_caller(monkeypatch)
    run_parts = aoisim.dp._run_parts

    def failing(pool, fn, parts):
        def part_then_fail(part):
            fn(part)
            if fn.__name__ == body and threading.current_thread() not in callers:
                raise Boom(body)
        return run_parts(pool, part_then_fail, parts)

    monkeypatch.setattr(aoisim.dp, "_run_parts", failing)
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    before = threading.enumerate()
    with pytest.raises(Boom, match=body):
        _solve_within(60, inst, costs, a_cap=8, tolerance=1e-4)
    assert threading.enumerate() == before


@pytest.mark.parametrize("threads", [2, 3])
def test_failure_on_the_caller_leaves_no_thread_running(monkeypatch, threads):
    # an error on the caller, which values state 0 before the parts start
    # and then sweeps the first part, reaches the test with every worker done
    _split(monkeypatch, threads)
    callers = _record_caller(monkeypatch)
    expected = aoisim.dp._expected

    def fail_on_the_caller(*args):
        if threading.current_thread() in callers:
            raise Boom("caller")
        return expected(*args)

    monkeypatch.setattr(aoisim.dp, "_expected", fail_on_the_caller)
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    before = threading.enumerate()
    with pytest.raises(Boom, match="caller"):
        _solve_within(60, inst, costs, a_cap=8, tolerance=1e-4)
    assert threading.enumerate() == before


def test_sweep_parts_run_in_any_order(monkeypatch):
    # each slab subtracts the value of state 0 that the caller computed
    # before the parts start, so no part waits on another: run one after
    # the other in reverse on the caller, they give the same bits
    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    ref = dp_optimal(inst, costs, a_cap=8, tolerance=1e-4)
    _split(monkeypatch, 3)

    def in_reverse(pool, body, parts):
        for part in reversed(parts):
            body(part)

    monkeypatch.setattr(aoisim.dp, "_run_parts", in_reverse)
    sol = _solve_within(20, inst, costs, a_cap=8, tolerance=1e-4)
    assert np.array(sol.span_history).tobytes() == np.array(ref.span_history).tobytes()
    assert sol.policy.tobytes() == ref.policy.tobytes()
    assert sol.relative_values.tobytes() == ref.relative_values.tobytes()
    assert repr(sol.per_pair_average) == repr(ref.per_pair_average)


@pytest.mark.parametrize("first", [0, 4], ids=["full-first", "compact-first"])
def test_policy_pass_argmin_is_the_first_minimum(first):
    # gathered blocks over a (3, 4, 5) slab, full and compact on different
    # axes, with small integer values and dyadic weights, so that actions tie
    # exactly; ``first`` is the block of action 0
    shape = (3, 4, 5)
    rng = np.random.default_rng(3)
    blocks = [rng.integers(0, 3, size=size).astype(float)
              for size in (shape, (1, 4, 5), (3, 1, 5), (3, 4, 1), (1, 1, 5))]
    outcomes_per_action = [[(1.0, first)], [(1.0, 2)], [(0.5, 0), (0.5, 1)],
                           [(0.25, 3), (0.75, 4)], [(1.0, 1)], [(0.5, 2), (0.5, 4)]]
    expected = np.stack([np.broadcast_to(sum(w * blocks[m] for w, m in outs), shape)
                         for outs in outcomes_per_action])
    assert ((expected == expected.min(axis=0)).sum(axis=0) > 1).any()  # ties occur

    def best(policy=None):
        out, scratch, spare = np.empty((3,) + shape)
        e = aoisim.dp._best(outcomes_per_action, blocks, out, scratch, spare.reshape(-1),
                            policy)
        return np.broadcast_to(e, shape).tobytes()

    policy = np.zeros(shape, dtype=np.int32)
    with_policy = best(policy)
    assert np.array_equal(policy, expected.argmin(axis=0))
    assert with_policy == best()
    assert with_policy == expected.min(axis=0).tobytes()


def test_two_hop_dp_alternates(two_hop):
    # tiny multihop: optimal relay schedule alternates, destination age
    # averages 2.5
    instance, cost_fns = two_hop
    sol = dp_optimal(instance, cost_fns, a_cap=12, tolerance=1e-6)
    assert sol.gain == pytest.approx(2.5, abs=1e-4)


def _check_table_rows(sol, lines):
    # one row per state in flat order: ages, then the policy's action and
    # the relative value as printed
    for flat, line in enumerate(lines):
        *ages, action, value = line.split(",")
        age = {pair: int(a) for pair, a in zip(sol.pairs, ages)}
        assert state_index(sol, age) == flat
        assert int(action) == sol.policy[flat]
        assert value == f"{sol.relative_values[flat]:.10g}"


def test_export_table_shape(tmp_path):
    inst, costs = gen_star(2, weight_rule="unit", reliability_rule="reliable")
    sol = dp_optimal(inst, costs, a_cap=5, tolerance=1e-6)
    out = tmp_path / "table.csv"
    export_table(sol, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "age_1_2,action_index,relative_value"
    assert len(lines) == 1 + 5
    _check_table_rows(sol, lines[1:])

    inst, costs = gen_star(4, reliability_rule="uniform", rng=np.random.default_rng(0))
    sol = dp_optimal(inst, costs, a_cap=5, tolerance=1e-6)
    export_table(sol, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "age_1_4,age_2_4,age_3_4,action_index,relative_value"
    assert len(lines) == 1 + 5 ** 3
    _check_table_rows(sol, lines[1:])


@pytest.mark.parametrize("build", [lambda: gen_star(4), lambda: gen_line(4)])
def test_state_axes_are_the_row_plan_rows(build):
    inst, costs = build()
    assert dp_optimal(inst, costs, a_cap=6).pairs == row_plan(inst).tracked


def test_policy_lookup_clips_at_cap():
    inst, costs = gen_star(2, weight_rule="unit", reliability_rule="reliable")
    sol = dp_optimal(inst, costs, a_cap=5, tolerance=1e-6)
    assert action_for(sol, {(1, 2): 500}) == action_for(sol, {(1, 2): 5})


# sha256 of the exported bytes, recorded from the row-by-row csv writer
EXPORT_SHA256 = {
    "star-n5-uniform-functions-of-age":
        "f5a6bef632fb839f2ed980431c568e19385295884cb6e0c192081bd1c6c8ef9e",
    "two-hop": "7975dcb86d6bf6cd00929848b6468701e620d411e0e0c7da53aaaa28c54df599",
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_export_table_bytes_pinned(tmp_path, name):
    if name == "two-hop":
        inst = make_instance(3, {(1, 2): 1.0, (2, 3): 1.0}, [(1, {3})],
                             interference="single-transmitter", eligibility="path")
        sol = dp_optimal(inst, {(1, 3): CostFunction.power(1.5)}, a_cap=6, tolerance=1e-6)
    else:
        inst, costs = gen_star(5, reliability_rule="uniform", rng=np.random.default_rng(0),
                               cost_rule="functions-of-age")
        sol = dp_optimal(inst, costs, a_cap=5, tolerance=1e-4)
    out = tmp_path / "table.csv"
    export_table(sol, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[name]
