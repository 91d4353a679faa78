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


QUICK_DETAILS = {
    "value_decomposition": "max decomposition gap 3.807e-12 over 64 pairs",
    "gradient_forms": "form gap 4.857e-16, fd relative gap 3.651e-10",
    "pushsum_invariants": "invariants held 300 rounds; static decay rate 0.8727, R2 1.00000",
    "geometric_sampler": (
        "mean 9.023 (target 9), P(0) 0.1001 (target 0.1), truncation identity gap 3.33e-16"
    ),
    "policy_scores": (
        "normalization gap 2.22e-16, score mean 8.30e-17, coupled term gap 9.09e-17 "
        "over 2 draws per parameter shape"
    ),
}


def test_quick_suite_details_are_pinned():
    # every reported number of the quick suite, so that a change to how a
    # check batches its work shows if it moves one
    report = verify.run_suite("quick")
    assert report["pass"]
    assert {c["name"]: c["detail"] for c in report["checks"]} == QUICK_DETAILS
