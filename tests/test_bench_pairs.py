"""The two verdicts that scripts/bench_pairs.py prints for each metric."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
compare = runpy.run_path(str(SCRIPT))["compare"]


def verdicts(spec, old, new):
    """(gain, in bound) of one metric."""
    return compare(spec, old, new)[3:]


LOWER = {"name": "sweep_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}
PARENT = [10.0, 10.2, 9.8, 10.1, 10.0, 10.3, 9.9, 10.0, 10.1, 10.0]  # median 10, IQR 0.1


@pytest.mark.parametrize(
    "change, gain, in_bound",
    [
        ([7.6] * 10, True, True),  # every pair won, gap far beyond the IQR
        ([7.6] * 9 + [10.5], True, True),  # 9/10 pairs is enough
        ([7.6] * 8 + [10.5] * 2, False, True),  # 8/10 is not
        ([x - 0.05 for x in PARENT], False, True),  # every pair won, gap 0.05 within the IQR
        ([12.5] * 10, False, True),  # 25% worse sits on the bound
        ([12.6] * 10, False, False),  # 26% worse is past it
    ],
)
def test_verdicts_of_a_lower_is_better_metric(change, gain, in_bound):
    assert verdicts(LOWER, PARENT, change) == (gain, in_bound)


def test_verdicts_of_a_higher_is_better_metric():
    assert verdicts(HIGHER, PARENT, [12.0] * 10) == (True, True)
    assert verdicts(HIGHER, PARENT, [7.4] * 10) == (False, False)
