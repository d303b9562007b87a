import pytest

from aoisim import CostFunction, make_instance


@pytest.fixture
def two_hop():
    """3-node line 1-2-3, one flow 1 -> 3, one edge active per slot."""
    instance = make_instance(3, {(1, 2): 1.0, (2, 3): 1.0}, [(1, {3})],
                             interference="single-transmitter", eligibility="path")
    cost_fns = {(1, 3): CostFunction.linear(1.0)}
    return instance, cost_fns


def idx_of(instance, action):
    return instance.action_space.index[action]


def lyapunov(debt):
    """Sum of squares of every destination and intermediate queue."""
    total = 0.0
    for q in debt.dest.values():
        total += q * q
    for q in debt.intermediate.values():
        total += q * q
    return total
