"""The pair runner's summary (`tools/bench_pairs.py`) on fixed numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def summary(old, new, better="lower", bound=None):
    runs = lambda values: [{"m": v} for v in values]
    bounds = {} if bound is None else {"m": bound}
    rows = bench_pairs.summarize(runs(old), runs(new), {"m": better}, bounds)
    assert len(rows) == 1
    return rows[0]


def test_quartiles_and_medians_interpolate_linearly():
    row = summary(PARENT, [v - 5.0 for v in PARENT])
    assert row["parent"] == (12.25, 14.5, 16.75)
    assert row["change"] == (7.25, 9.5, 11.75)
    assert row["rel"] == pytest.approx(-5.0 / 14.5)
    assert (row["wins"], row["pairs"]) == (10, 10)


def test_claim_needs_nine_tenths_of_pairs_and_more_than_the_parent_iqr():
    # 10/10 wins, medians 5 apart, parent IQR 4.5
    assert summary(PARENT, [v - 5.0 for v in PARENT])["verdict"] == "gain"
    # 10/10 wins, medians 4 apart: inside the IQR
    row = summary(PARENT, [v - 4.0 for v in PARENT])
    assert (row["wins"], row["claim"], row["verdict"]) == (10, False, "ok")
    # 8/10 wins, medians far apart; ties count for neither side
    new = [v - 9.0 for v in PARENT[:8]] + PARENT[8:]
    row = summary(PARENT, new)
    assert (row["wins"], row["claim"]) == (8, False)
    # 9/10 is enough
    new = [v - 9.0 for v in PARENT[:9]] + [PARENT[9] + 1.0]
    assert summary(PARENT, new)["claim"]


def test_higher_is_better_metrics_win_upwards():
    row = summary(PARENT, [v + 5.0 for v in PARENT], better="higher")
    assert (row["wins"], row["verdict"]) == (10, "gain")
    row = summary(PARENT, [v - 5.0 for v in PARENT], better="higher")
    assert row["wins"] == 0 and not row["claim"]


def test_worse_and_unresolved_against_the_bound():
    tight = [14.0, 14.0, 14.2, 14.4, 14.5, 14.5, 14.6, 14.8, 15.0, 15.0]
    # 20% slower with a 10% bound and a parent IQR of about 4%
    assert summary(tight, [1.2 * v for v in tight],
                   bound=0.1)["verdict"] == "worse"
    assert summary(tight, [1.05 * v for v in tight],
                   bound=0.1)["verdict"] == "ok"
    # the parent's own IQR (4.5 of 14.5) exceeds a 25% bound
    assert summary(PARENT, [v + 1.0 for v in PARENT],
                   bound=0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run: here the medians
    # are 5.1 apart, inside the parent's IQR of 10
    wide = [10.0] * 5 + [20.0] * 5
    row = summary(wide, [9.9] * 10, bound=0.25)
    assert (row["wins"], row["claim"], row["verdict"]) == (10, False, "ok")
    assert summary(wide, [9.9] * 9 + [10.5],
                   bound=0.25)["verdict"] == "unresolved"


def test_metrics_missing_from_a_run_are_left_out():
    rows = bench_pairs.summarize([{"a": 1.0, "b": 2.0}], [{"a": 1.0}], {},
                                 {})
    assert [row["metric"] for row in rows] == ["a"]
    assert rows[0]["parent"] == (1.0, 1.0, 1.0) and rows[0]["wins"] == 0


def test_unequal_pair_counts_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"m": 1.0}], [], {}, {})


def test_round_wall_is_the_median_round_and_gets_a_row():
    # the parts of a result.json that the round row reads
    result = {"correct": True, "metrics": {"protocol_s": {"value": 0.1}},
              "round_walls_s": [0.31, 0.18, 0.25, 0.2]}
    assert bench_pairs.round_wall(result) == pytest.approx(0.225)
    assert bench_pairs.round_wall({"round_walls_s": [0.4]}) == 0.4
    parent = [{"protocol_s": 0.2, "round_s": 0.3}] * 3
    change = [{"protocol_s": 0.2, "round_s": 0.2}] * 3
    rows = bench_pairs.summarize(parent, change, {"protocol_s": "lower"},
                                 {"protocol_s": 0.25})
    assert [row["metric"] for row in rows] == ["protocol_s", "round_s"]
    assert (rows[1]["wins"], rows[1]["verdict"]) == (3, "gain")
