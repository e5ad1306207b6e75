"""The verdict rule of ``tests/ab_runs.py``, the paired benchmark
comparator: at least 10 pairs, one side winning 9 in 10 of them, and
medians further apart than the parent's interquartile distance."""

import pytest

from ab_runs import compare


def pairs(outcomes, step=0.01, gap=1.0):
    """``(parent, change)`` pairs, the parent at ``10 + step * i``, the change
    ``gap`` lower for a "w", ``gap`` higher for an "l" and equal for a
    "t" in ``outcomes``."""
    move = {"w": -gap, "l": gap, "t": 0.0}
    return [(10.0 + step * i, 10.0 + step * i + move[o])
            for i, o in enumerate(outcomes)]


@pytest.mark.parametrize("outcomes, verdict", [
    ("w" * 10, "better"),
    ("w" * 9 + "l", "better"),
    ("w" * 9 + "t", "better"),  # a tie counts for neither side
    ("w" * 8 + "ll", "no change"),
    ("w" * 9, "no change"),  # fewer than 10 pairs
    ("l" * 10, "worse"),
    ("l" * 9 + "w", "worse"),
])
def test_a_lower_is_better_metric(outcomes, verdict):
    assert compare(pairs(outcomes), "lower")["verdict"] == verdict


def test_a_higher_is_better_metric_reads_the_other_way():
    assert compare(pairs("w" * 10), "higher")["verdict"] == "worse"
    assert compare(pairs("l" * 10), "higher")["verdict"] == "better"


def test_a_median_gap_within_the_parents_spread_is_no_change():
    # every pair won, but the medians 0.5 apart inside a spread of 4.5
    summary = compare(pairs("w" * 10, step=1.0, gap=0.5), "lower")
    assert summary["wins"] == {"parent": 0, "change": 10, "ties": 0}
    assert summary["parent_iqr"] == pytest.approx(4.5)
    assert summary["verdict"] == "no change"


def test_the_summary_keeps_the_raw_pairs_and_the_win_counts():
    raw = pairs("w" * 9 + "t")
    summary = compare(raw, "lower")
    assert summary["pairs"] == [list(p) for p in raw]
    assert summary["wins"] == {"parent": 0, "change": 9, "ties": 1}
    assert summary["parent"]["median"] == pytest.approx(10.045)
