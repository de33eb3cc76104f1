"""scripts/pairs.py's gain rule: the change wins at least 9 of 10 pairs and
its median beats the parent's by more than the parent's IQR."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"


def _pairs():
    spec = importlib.util.spec_from_file_location("pairs_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_a_clear_gain_holds():
    v = _pairs().verdict(PARENT, [2.0 * p for p in PARENT], "higher")
    assert v["wins"] == 10 and v["gain_holds"]
    assert v["parent"]["median"] == 100.0 and v["change"]["median"] == 200.0


def test_nine_wins_are_enough_and_eight_are_not():
    pairs = _pairs()
    change = [150.0] * 10
    change[0] = 50.0
    assert pairs.verdict(PARENT, change, "higher")["gain_holds"]
    change[1] = 50.0
    v = pairs.verdict(PARENT, change, "higher")
    assert v["wins"] == 8 and not v["gain_holds"]


def test_a_median_gain_inside_the_parents_iqr_does_not_hold():
    # Every pair won by 1, but the parent's runs spread over an IQR of 2.
    v = _pairs().verdict(PARENT, [p + 1.0 for p in PARENT], "higher")
    assert v["wins"] == 10 and v["parent"]["q3"] - v["parent"]["q1"] > 1.0
    assert not v["gain_holds"]


def test_lower_is_better_counts_the_other_way():
    pairs = _pairs()
    halved = [0.5 * p for p in PARENT]
    assert pairs.verdict(PARENT, halved, "lower")["gain_holds"]
    v = pairs.verdict(PARENT, halved, "higher")
    assert v["wins"] == 0 and not v["gain_holds"]


def test_ties_are_not_wins():
    v = _pairs().verdict(PARENT, list(PARENT), "higher")
    assert v["wins"] == 0 and not v["gain_holds"]


@pytest.mark.parametrize("parent,change", [([1.0], [2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0])])
def test_needs_two_or_more_matched_pairs(parent, change):
    with pytest.raises(ValueError, match="two or more pairs"):
        _pairs().verdict(parent, change, "higher")
