"""The summary of scripts/ab_pairs.py, the interleaved benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.35, 0.36, 0.34, 0.37, 0.35, 0.36, 0.35, 0.34, 0.36, 0.35]


def test_summary_reads_medians_quartiles_and_wins(ab_pairs):
    change = [p - 0.03 for p in PARENT]
    change[3] = 0.38  # one pair lost
    s = ab_pairs.summary(PARENT, change, "lower")
    assert s["pairs"] == 10 and s["wins"] == 9
    assert s["parent"]["median"] == pytest.approx(0.35)
    # statistics.quantiles(n=4), the exclusive method: Q1 at rank 2.75, Q3 at 8.25
    assert s["parent"]["q1"] == pytest.approx(0.3475)
    assert s["parent"]["q3"] == pytest.approx(0.36)
    assert s["change"]["median"] == pytest.approx(0.32)
    assert s["claim_holds"] is True


def test_summary_claim_needs_nine_wins_in_ten(ab_pairs):
    change = [p - 0.03 for p in PARENT]
    change[3] = change[5] = 0.40  # two pairs lost
    s = ab_pairs.summary(PARENT, change, "lower")
    assert s["wins"] == 8
    assert s["claim_holds"] is False


def test_summary_claim_needs_a_median_gap_wider_than_the_parent_iqr(ab_pairs):
    # Every pair won, but by 0.01, under the parent's Q3 - Q1 of 0.0125.
    s = ab_pairs.summary(PARENT, [p - 0.01 for p in PARENT], "lower")
    assert s["wins"] == 10
    assert s["claim_holds"] is False
    # A tie is no win.
    assert ab_pairs.summary(PARENT, PARENT, "lower")["wins"] == 0


def test_summary_of_a_higher_is_better_metric(ab_pairs):
    s = ab_pairs.summary(PARENT, [p + 0.03 for p in PARENT], "higher")
    assert s["wins"] == 10 and s["claim_holds"] is True
    s = ab_pairs.summary(PARENT, [p - 0.03 for p in PARENT], "higher")
    assert s["wins"] == 0 and s["claim_holds"] is False
