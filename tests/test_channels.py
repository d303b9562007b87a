import numpy as np

from aoisim import ChannelProcess, make_instance


def simple_instance(p):
    return make_instance(2, {(1, 2): p}, [(1, {2})])


def test_reliable_always_succeeds():
    cp = ChannelProcess(simple_instance(1.0), seed=3)
    assert all(bits[0] for bits in cp.bits(500))


def test_empirical_mean_matches_probability():
    # binomial CI: 10^5 draws of p=0.6, tolerance 0.005 (approx 3 sigma)
    cp = ChannelProcess(simple_instance(0.6), seed=11)
    hits = sum(int(bits[0]) for bits in cp.bits(100_000))
    assert abs(hits / 100_000 - 0.6) < 0.005


def test_fixed_seed_reproduces_sequence():
    inst = simple_instance(0.5)
    a = [bits[0] for bits in ChannelProcess(inst, seed=7).bits(200)]
    b = [bits[0] for bits in ChannelProcess(inst, seed=7).bits(200)]
    assert a == b
    c = [bits[0] for bits in ChannelProcess(inst, seed=8).bits(200)]
    assert a != c


def test_every_horizon_reads_the_first_slots_of_a_longer_one():
    inst = simple_instance(0.5)
    cp = ChannelProcess(inst, seed=5)
    seq = list(cp.bits(5000))
    assert len(seq) == 5000
    for horizon in (4999, 4097, 4096, 4095, 100, 1):  # about the block boundary
        assert list(cp.bits(horizon)) == seq[:horizon]
    assert list(cp.bits(0)) == []


def test_short_blocks_match_slots_across_a_boundary():
    # open-loop runs draw only the rows they use; a short last block holds
    # the first rows of the full one
    inst = make_instance(3, {(1, 2): 0.5, (2, 3): 0.3}, [(1, {3})])
    cp = ChannelProcess(inst, seed=5)
    rows = np.vstack([cp._rows(0, 4096), cp._rows(4096, 4200)])
    ref = ChannelProcess(inst, seed=5)
    assert np.array_equal(rows, np.array(list(ref.bits(4200))))
    assert np.array_equal(cp._rows(0, 17), rows[:17])


def test_edges_get_independent_streams():
    inst = make_instance(3, {(1, 3): 0.5, (2, 3): 0.5}, [(1, {3}), (2, {3})])
    cp = ChannelProcess(inst, seed=9)
    bits = np.array(list(cp.bits(4000)))
    assert bits[:, 0].mean() != bits[:, 1].mean() or \
        not np.array_equal(bits[:, 0], bits[:, 1])
    # correlation of independent fair coins stays small
    corr = np.corrcoef(bits[:, 0], bits[:, 1])[0, 1]
    assert abs(corr) < 0.06


def test_sample_channels_dict_form():
    inst = simple_instance(1.0)
    bits = list(ChannelProcess(inst, seed=0).bits(18))[17]
    out = {e: bool(bits[i]) for i, e in enumerate(inst.edges)}
    assert out == {(1, 2): True}
