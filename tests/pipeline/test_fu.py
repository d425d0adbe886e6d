"""Functional-unit pool: ports, non-pipelined occupancy, §4.9 ordering."""

from repro.config import CoreConfig
from repro.pipeline.functional_units import FUPool
from repro.pipeline.isa import FU_CLASSES


def make(strict=False, **kwargs):
    return FUPool(CoreConfig(**kwargs), strict_order=strict)


def test_pipelined_port_limit():
    pool = make(int_alus=2)
    pool.begin_cycle(0)
    assert pool.try_issue("int", 0, 1, True)
    assert pool.try_issue("int", 0, 1, True)
    assert not pool.try_issue("int", 0, 1, True)
    # ports free again next cycle
    assert pool.try_issue("int", 1, 1, True)


def test_nonpipelined_occupies_unit_for_latency():
    pool = make(muldiv_units=1)
    assert pool.try_issue("muldiv", 0, 20, False)
    pool.begin_cycle(5)
    assert not pool.try_issue("muldiv", 5, 20, False)
    pool.begin_cycle(20)
    assert pool.try_issue("muldiv", 20, 20, False)


def test_two_units_allow_two_concurrent_divides():
    pool = make(muldiv_units=2)
    assert pool.try_issue("muldiv", 0, 20, False)
    assert pool.try_issue("muldiv", 0, 20, False)
    assert not pool.try_issue("muldiv", 0, 20, False)
    assert pool.busy_units("muldiv", 10) == 2


def test_structural_hazard_stat():
    pool = make(muldiv_units=1)
    pool.try_issue("muldiv", 0, 20, False)
    pool.begin_cycle(1)
    pool.try_issue("muldiv", 1, 20, False)
    assert pool.stats.get("fu.muldiv.structural_hazard") == 1


def test_strict_order_blocks_after_failure():
    """Once an older non-pipelined op fails to issue in a cycle, younger
    same-class ops are blocked for that cycle (§4.9)."""
    pool = make(strict=True, muldiv_units=1)
    assert pool.try_issue("muldiv", 0, 20, False)    # occupies the unit
    pool.begin_cycle(3)
    assert not pool.try_issue("muldiv", 3, 20, False)  # older op fails
    assert not pool.try_issue("muldiv", 3, 20, False)  # younger blocked
    assert pool.stats.get("fu.muldiv.strict_blocked") >= 1


def test_strict_order_off_by_default():
    pool = make(muldiv_units=2)
    assert not pool.strict_order


def test_classes_are_independent():
    pool = make(int_alus=1, fp_alus=1)
    pool.begin_cycle(0)
    assert pool.try_issue("int", 0, 1, True)
    assert pool.try_issue("fp", 0, 4, True)
    assert not pool.try_issue("int", 0, 1, True)


def test_grant_and_try_issue_share_one_port_count():
    pool = make(int_alus=2, muldiv_units=2)
    pool.begin_cycle(0)
    int_fu = FU_CLASSES.index("int")
    muldiv = FU_CLASSES.index("muldiv")
    assert pool.grant(int_fu)
    assert pool.try_issue("int", 0, 1, True)
    assert not pool.grant(int_fu)
    assert not pool.try_issue("int", 0, 1, True)
    # a non-pipelined op takes a port from the count grants draw on
    assert pool.try_issue("muldiv", 0, 20, False)
    assert pool.grant(muldiv)
    assert not pool.grant(muldiv)
    assert pool.stats.get("fu.int.issued") == 2
    assert pool.stats.get("fu.muldiv.issued") == 2
    pool.begin_cycle(1)
    assert pool.grant(int_fu) and pool.grant(muldiv)


def test_ports_query():
    pool = make(int_alus=6, fp_alus=4, muldiv_units=2)
    assert pool.ports("int") == 6
    assert pool.ports("fp") == 4
    assert pool.ports("muldiv") == 2
