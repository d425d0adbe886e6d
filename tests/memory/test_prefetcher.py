"""Stride prefetcher: RPT detection, confidence, lookahead front."""

import pytest

from repro.memory.prefetcher import StridePrefetcher


def train_stream(pf, pc, start, stride, count):
    out = []
    for i in range(count):
        out.append(pf.train(pc, start + i * stride))
    return out


def test_needs_confidence_before_predicting():
    pf = StridePrefetcher()
    results = train_stream(pf, pc=4, start=100, stride=1, count=4)
    assert results[0] == [] and results[1] == [] and results[2] == []
    # fourth access: stride confirmed twice -> confidence threshold
    assert results[3] != []


def test_predicts_ahead_of_trigger():
    pf = StridePrefetcher(degree=2)
    results = train_stream(pf, pc=4, start=100, stride=1, count=4)
    for lines in results:
        for line in lines:
            assert line > 100


def test_front_advances_past_demand_stream():
    """The lookahead front must overtake a steady stream (essential for
    commit-time training, §4.7)."""
    pf = StridePrefetcher(degree=2, max_distance=24)
    last_trigger = 0
    frontmost = 0
    for i in range(30):
        line = 100 + i
        for pf_line in pf.train(4, line):
            frontmost = max(frontmost, pf_line)
        last_trigger = line
    assert frontmost > last_trigger + 10


def test_front_respects_max_distance():
    pf = StridePrefetcher(degree=4, max_distance=6)
    farthest = 0
    trigger = 0
    for i in range(40):
        trigger = 100 + i
        for line in pf.train(4, trigger):
            farthest = max(farthest, line)
        assert farthest <= trigger + 6


def test_negative_stride():
    pf = StridePrefetcher(degree=1)
    predictions = train_stream(pf, pc=4, start=1000, stride=-2, count=4)
    flat = [line for lines in predictions for line in lines]
    assert flat and all(line < 1000 for line in flat)
    assert all(line >= 0 for line in flat)


def test_stride_change_resets_confidence():
    pf = StridePrefetcher()
    train_stream(pf, pc=4, start=100, stride=1, count=4)
    assert pf.train(4, 500) == []     # broken stride: no prediction


def test_per_pc_isolation():
    pf = StridePrefetcher()
    train_stream(pf, pc=4, start=100, stride=1, count=4)
    assert pf.train(8, 999) == []     # different pc: untrained


def test_capacity_eviction():
    pf = StridePrefetcher(entries=2)
    train_stream(pf, pc=1, start=100, stride=1, count=3)
    pf.train(2, 0)
    pf.train(3, 0)                    # evicts pc=1 (LRU)
    pcs = [pc for pc, _stride, _conf in pf.snapshot()]
    assert 1 not in pcs


def test_zero_stride_never_predicts():
    pf = StridePrefetcher()
    results = train_stream(pf, pc=4, start=100, stride=0, count=6)
    assert all(not lines for lines in results)


def test_rejects_empty_table():
    with pytest.raises(ValueError):
        StridePrefetcher(entries=0)


def test_a_train_at_rest_changes_nothing_but_the_count():
    """Repeated same-line trains settle an entry (stride 0, confidence
    0); once it is also the most recent one, another train changes
    nothing but ``pf.trains`` and leaves ``version`` alone."""
    pf = StridePrefetcher()
    train_stream(pf, pc=4, start=100, stride=1, count=3)
    while not pf.at_rest(4, 200):
        pf.train(4, 200)
    version, table = pf.version, pf.snapshot()
    trains = pf.stats.get("pf.trains")
    assert pf.train(4, 200) == []
    assert (pf.version, pf.snapshot()) == (version, table)
    assert pf.stats.get("pf.trains") == trains + 1
    assert not pf.at_rest(4, 201)


def test_a_settled_entry_behind_another_is_not_at_rest():
    """The recency order is part of the state: a settled entry that is
    not the most recent one moves to the end when trained, so which
    entry a later insert evicts depends on that train."""
    pf = StridePrefetcher(entries=2)
    for _ in range(3):
        pf.train(1, 50)
    assert pf.at_rest(1, 50)
    pf.train(2, 0)
    assert not pf.at_rest(1, 50)
    version = pf.version
    pf.train(1, 50)                   # moves pc=1 to the end
    assert pf.version > version
    pf.train(3, 0)                    # evicts pc=2, now the LRU entry
    pcs = [pc for pc, _stride, _conf in pf.snapshot()]
    assert pcs == [1, 3]
