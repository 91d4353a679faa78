"""Pins of the ``verify`` checks' reports."""

from nmarl import verify


def test_pushsum_check_detail_is_pinned():
    # the report of the check when it drew each round's deltas in its own
    # call; one draw of all rounds gives the same values and generator state
    ok, detail = verify.check_pushsum()
    assert ok
    assert detail == "invariants held 300 rounds; static decay rate 0.8727, R2 1.00000"


def test_value_decomposition_detail_is_pinned():
    # the report of the check when it summed the local Q tables point by
    # point; one broadcast sum in agent order gives the same gap
    ok, detail = verify.check_value_decomposition()
    assert ok
    assert detail == "max decomposition gap 3.807e-12 over 64 pairs"
