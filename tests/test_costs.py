import math
import pickle

import pytest

from aoisim import CostFunction


def test_linear():
    f = CostFunction.linear(15.0)
    assert f(1) == 15.0
    assert f(3) == 45.0


def test_power():
    assert CostFunction.power(2)(5) == 25.0
    assert CostFunction.power(3)(3) == 27.0


def test_exponential():
    f = CostFunction.exponential()
    assert f(2) == pytest.approx(math.exp(2))


def test_indicator_threshold_boundary():
    f = CostFunction.indicator(4)
    assert f(3) == 0.0
    assert f(4) == 1.0
    assert f(10) == 1.0


def test_cap_bounds_all_values():
    f = CostFunction.exponential(cap=100.0)
    assert f(10) == 100.0
    assert f(1000) == 100.0  # would overflow math.exp without the guard
    g = CostFunction.power(3, cap=8.0)
    assert g(2) == 8.0
    assert g(5) == 8.0


@pytest.mark.parametrize("f", [
    CostFunction.linear(0.7),
    CostFunction.power(2),
    CostFunction.power(3),
    CostFunction.exponential(),
    CostFunction.indicator(5),
])
def test_monotone_nondecreasing(f):
    values = [f(h) for h in range(1, 60)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= f.cap for v in values)


def test_age_below_one_rejected():
    with pytest.raises(ValueError):
        CostFunction.linear()(0)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        CostFunction("sqrtish")
    with pytest.raises(ValueError):
        CostFunction.linear(-1.0)
    with pytest.raises(ValueError):
        CostFunction.indicator(0)
    # NaN fails every range check
    with pytest.raises(ValueError, match="linear weight"):
        CostFunction.linear(math.nan)
    with pytest.raises(ValueError, match="power exponent"):
        CostFunction.power(math.nan)
    # a threshold is a whole age: 2.5 would read as 2, and 1e400 overflows int()
    for threshold in (2.5, 1e400, math.nan):
        with pytest.raises(ValueError, match="whole number"):
            CostFunction.indicator(threshold)
    assert CostFunction.indicator(2.0) == CostFunction.indicator(2)


def test_from_dict_reads_each_kinds_keys():
    # a spec sets its kind's one parameter and cap; unset ones keep the defaults
    for spec, f in (({"kind": "linear", "weight": 2.5}, CostFunction.linear(2.5)),
                    ({"kind": "power", "exponent": 3, "cap": 99.0},
                     CostFunction.power(3, cap=99.0)),
                    ({"kind": "exponential"}, CostFunction.exponential()),
                    ({"kind": "indicator", "threshold": 7}, CostFunction.indicator(7)),
                    ({"kind": "linear"}, CostFunction.linear(1.0))):
        assert CostFunction.from_dict(spec) == f
    # a key the kind does not read is an error, not ignored
    with pytest.raises(ValueError,
                       match=r"^'exponent', 'threshold' not read by cost kind 'linear'$"):
        CostFunction.from_dict({"kind": "linear", "weight": 1.0, "exponent": 3.0,
                                "threshold": 4})
    with pytest.raises(ValueError, match="'weight' not read by cost kind 'exponential'"):
        CostFunction.from_dict({"kind": "exponential", "weight": 2.0})
    with pytest.raises(ValueError, match="unknown cost kind 'cubic'"):
        CostFunction.from_dict({"kind": "cubic", "weight": 2.0})


def test_power_overflow_returns_cap():
    f = CostFunction.power(100.0)
    assert f(2000) == f.cap  # 2000.0 ** 100 overflows a float
    g = CostFunction.power(2.5, cap=1e300)
    assert g(7).hex() == (7.0 ** 2.5).hex()  # values below the cap keep their bits
    assert g(10 ** 200) == 1e300


KINDS = [
    CostFunction.linear(0.7),
    CostFunction.linear(3.0, cap=10.0),
    CostFunction.power(1.5),
    CostFunction.power(3, cap=50.0),
    CostFunction.power(100.0),
    CostFunction.exponential(),
    CostFunction.exponential(cap=50.0),  # _exp_limit = log 50 = 3.91...
    CostFunction.indicator(5),
    CostFunction.indicator(2, cap=0.5),
]


@pytest.mark.parametrize("f", KINDS, ids=repr)
def test_table_has_the_bits_of_call(f):
    # f[a] reads f as a cost table: the call's bits, across the exponential
    # cut-off and far out
    fresh = CostFunction(*f._key())
    limit = math.ceil(f._exp_limit) if f.kind == "exponential" else 4
    for a in [*range(1, limit + 3), 40, 3000]:
        assert fresh[a].hex() == f(a).hex()


def test_cost_function_pickles_compares_and_hashes_by_value():
    assert len(set(KINDS)) == len(KINDS)
    for f in KINDS:
        for a in range(1, 500):
            f(a)  # pricing leaves nothing behind
        fresh = CostFunction(*f._key())
        back = pickle.loads(pickle.dumps(f))
        assert f == fresh == back and hash(f) == hash(fresh) == hash(back)
        assert back._key() == f._key()
        assert pickle.dumps(f) == pickle.dumps(fresh)
        assert [back(a).hex() for a in range(1, 50)] == [f(a).hex() for a in range(1, 50)]
