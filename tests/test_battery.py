"""Checks for the seeded theorem battery.

The battery must pass on well-conditioned random instances, be a pure
function of (seed, trials, dims, tol), and carry negative controls that
prove the check wiring can actually fail.
"""

import dataclasses

import numpy as np
import pytest

from crossgram import diagnostics as diag


EXPECTED_CHECKS = (
    "a-riesz-product",
    "b-rank-deficit",
    "c-riesz-transfer",
    "d-rank-count",
    "e-hs-bound",
    "f-norm-bounds",
    "g-dual-idempotent",
    "h-canonical-projection",
)

EXPECTED_CONTROLS = ("control-b-riesz", "control-g-shrunk")


@pytest.fixture(scope="module")
def small_report():
    return diag.theorem_battery(seed=7, trials=25, dims=(2, 6))


def test_battery_passes_on_small_run(small_report):
    assert small_report.all_passed is True
    assert [c.check_id for c in small_report.checks] == list(EXPECTED_CHECKS)
    for c in small_report.checks:
        assert c.failures == 0, f"{c.check_id}: {c.failures} failures"
        assert c.trials == 25
        assert np.isfinite(c.worst_margin)
        assert c.worst_margin >= 0.0, f"{c.check_id}: margin {c.worst_margin}"


def test_battery_controls_detect_miswiring(small_report):
    assert [c.check_id for c in small_report.controls] == list(EXPECTED_CONTROLS)
    for c in small_report.controls:
        assert c.passed is True, f"{c.check_id} failed to flag the bad instance"
        assert c.failures == 0


def test_battery_is_deterministic(small_report):
    again = diag.theorem_battery(seed=7, trials=25, dims=(2, 6))
    assert dataclasses.asdict(again) == dataclasses.asdict(small_report)


def test_battery_seed_changes_margins(small_report):
    other = diag.theorem_battery(seed=8, trials=25, dims=(2, 6))
    ours = {c.check_id: c.worst_margin for c in small_report.checks}
    theirs = {c.check_id: c.worst_margin for c in other.checks}
    assert ours != theirs


def test_battery_validates_arguments():
    with pytest.raises(ValueError, match="trials"):
        diag.theorem_battery(seed=1, trials=0, dims=(2, 6))
    with pytest.raises(ValueError, match="dims"):
        diag.theorem_battery(seed=1, trials=5, dims=(6, 2))
    with pytest.raises(ValueError, match="dims"):
        diag.theorem_battery(seed=1, trials=5, dims=(0, 4))
    with pytest.raises(ValueError, match="seed"):
        diag.theorem_battery(seed=-1, trials=5, dims=(2, 4))
    with pytest.raises(ValueError, match=r"tol 0.0001 must lie below MAX_CONDITION\*\*-2"):
        diag.theorem_battery(seed=1, trials=5, dims=(2, 4), tol=1e-4)
    # below 8 dimensions a trial costs call overhead, so the work counts 8**3
    for dims in ((2, 8), (2, 2)):
        with pytest.raises(ValueError, match="MAX_BATTERY_WORK"):
            diag.theorem_battery(seed=1, trials=diag.MAX_BATTERY_WORK // 8**3 + 1, dims=dims)


def test_battery_refuses_dims_past_the_condition_screen():
    with pytest.raises(ValueError, match="dims 2..65 reach past MAX_BATTERY_DIM = 64"):
        diag.theorem_battery(seed=1, trials=1, dims=(2, diag.MAX_BATTERY_DIM + 1))
    # the work budget is checked first
    with pytest.raises(ValueError, match="MAX_BATTERY_WORK"):
        diag.theorem_battery(seed=1, trials=1, dims=(2, 3000))
