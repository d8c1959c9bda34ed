"""The pair runner's summary (`tools/bench_pairs.py`) and the benchmark
record's entries (`tools/bench_record.py`) on fixed numbers."""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import bench_pairs  # noqa: E402
import bench_record  # noqa: E402

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


def calibrated(walls, inside=0.0):
    """The parts of an untraced result.json that the round row reads: 7
    host-speed samples per round, the last 4 of which, `inside` s each,
    fall inside the round's wall."""
    samples = [0.5, 0.5, 0.5] + [inside] * 4
    return {"correct": True, "metrics": {"protocol_s": {"value": 0.1}},
            "round_walls_s": walls,
            "calibration": {"samples_s": samples * len(walls)}}


def test_round_wall_is_the_median_round_and_gets_a_row():
    result = calibrated([0.31, 0.18, 0.25, 0.2])
    assert bench_pairs.round_wall(result) == pytest.approx(0.225)
    assert bench_pairs.round_wall(calibrated([0.4])) == 0.4
    parent = [{"protocol_s": 0.2, "round_s": 0.3}] * 3
    change = [{"protocol_s": 0.2, "round_s": 0.2}] * 3
    rows = bench_pairs.summarize(parent, change, {"protocol_s": "lower"},
                                 {"protocol_s": 0.25})
    assert [row["metric"] for row in rows] == ["protocol_s", "round_s"]
    assert (rows[1]["wins"], rows[1]["verdict"]) == (3, "gain")


def test_round_walls_lose_the_samples_taken_inside_them():
    # round i's samples are 7i..7i+6; 7i+3..7i+6 fall inside its wall
    result = {"round_walls_s": [0.20, 0.30],
              "calibration": {"samples_s": [9.0, 9.0, 9.0, 0.01, 0.02, 0.01,
                                            0.02, 9.0, 9.0, 9.0, 0.03, 0.03,
                                            0.03, 0.03]}}
    assert bench_pairs.round_walls(result) == pytest.approx([0.14, 0.18])
    assert bench_pairs.round_wall(result) == pytest.approx(0.16)
    assert bench_pairs.round_walls(calibrated([0.3], 0.01)) == pytest.approx(
        [0.26])


@pytest.mark.parametrize("samples", [None, [], [0.01] * 13, [0.01] * 15])
def test_round_walls_need_seven_samples_per_round(samples):
    result = {"round_walls_s": [0.2, 0.3], "calibration": None
              if samples is None else {"samples_s": samples}}
    with pytest.raises(ValueError, match="expected 7 per round"):
        bench_pairs.round_walls(result)


def step_metrics(scale):
    """A run's step p50s and protocol_s, times `scale`."""
    base = {"step_ms_p50.adam": 0.2, "step_ms_p50.fgsam_plus.exact": 0.3,
            "step_ms_p50.fgsam_plus.approx": 0.1, "protocol_s": 0.12}
    return {name: value * scale for name, value in base.items()}


def test_record_entry_on_fixed_numbers():
    runs = [step_metrics(s) for s in (1.0, 1.5, 0.5, 2.0)]
    runs[0]["round_s"] = 0.3     # in one run only: left out
    manifest = {"git_commit": "abc123", "workload": "fsnc-small"}
    entry = bench_record.entry(runs, manifest, 17, "f" * 64, "abc123")
    assert list(entry) == ["revision", "source", "seed", "runs", "metrics",
                           "fgsam_plus_over_adam", "manifest"]
    assert (entry["revision"], entry["source"], entry["seed"],
            entry["runs"]) == ("abc123", "f" * 64, 17, 4)
    assert entry["manifest"] is manifest
    assert list(entry["metrics"]) == list(step_metrics(1.0))
    # scales 0.5, 1, 1.5, 2: quartiles at 0.875, 1.25 and 1.625
    adam = entry["metrics"]["step_ms_p50.adam"]
    assert adam == pytest.approx({"median": 0.25, "q1": 0.175, "q3": 0.325})
    # (0.3 + (k - 1) 0.1) / k / 0.2, scale-free
    ratios = entry["fgsam_plus_over_adam"]
    assert list(ratios) == ["2", "3", "4"]
    assert [ratios[k] for k in ratios] == pytest.approx([1.0, 5 / 6, 0.75])


def test_record_appends_and_keeps_earlier_entries(tmp_path):
    path = str(tmp_path / "BENCH_fsnc-small.json")
    first = bench_record.entry([step_metrics(1.0)], {"git_commit": None}, 0,
                               "a" * 64, None)
    bench_record.append(path, [first])
    with open(path) as fh:
        text = fh.read()
    assert text.endswith("]\n") and json.loads(text) == [first]
    later = [bench_record.entry([step_metrics(2.0)], {}, s, "b" * 64, "c1")
             for s in (0, 17)]
    bench_record.append(path, later)
    with open(path) as fh:
        record = json.load(fh)
    assert record == [first] + later
    assert record[0]["revision"] is None
    assert sorted(os.listdir(tmp_path)) == ["BENCH_fsnc-small.json"]


def test_source_hash_names_the_sources(tmp_path):
    src = tmp_path / "src" / "fgsam"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    first = bench_record.source_hash(str(tmp_path))
    assert len(first) == 64
    (src / "notes.txt").write_text("not a source")
    assert bench_record.source_hash(str(tmp_path)) == first
    (src / "a.py").write_text("x = 2\n")
    assert bench_record.source_hash(str(tmp_path)) != first


def git(checkout, *args) -> str:
    return subprocess.run(["git", "-C", str(checkout), "-c", "user.name=t",
                           "-c", "user.email=t@t", *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_record_names_no_revision_for_uncommitted_sources(tmp_path,
                                                          monkeypatch):
    # two checkouts of one commit; the change's src/fgsam is then edited
    sides = [tmp_path / "parent", tmp_path / "change"]
    for checkout in sides:
        (checkout / "src" / "fgsam").mkdir(parents=True)
        (checkout / "src" / "fgsam" / "a.py").write_text("x = 1\n")
        (checkout / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [], "per_layer": []}))
        git(checkout, "init", "-q")
        git(checkout, "add", "-A")
        git(checkout, "commit", "-q", "-m", "seed")
    parent, change = map(str, sides)
    # a change outside src/fgsam leaves the measured tree the commit's
    (sides[0] / "notes.txt").write_text("untracked\n")
    (sides[1] / "src" / "fgsam" / "a.py").write_text("x = 2\n")
    heads = {side: git(side, "rev-parse", "HEAD") for side in (parent,
                                                               change)}
    monkeypatch.setattr(
        bench_pairs, "run_once",
        lambda checkout, *args: (step_metrics(1.0), True,
                                 {"git_commit": heads[checkout]}))
    assert bench_pairs.main([parent, change, "--workload", "fsnc-small",
                             "--pairs", "1", "--record"]) == 0
    with open(os.path.join(change, "BENCH_fsnc-small.json")) as fh:
        record = json.load(fh)
    assert [e["revision"] for e in record] == [heads[parent], None]
    assert [e["manifest"]["git_commit"] for e in record] == [
        heads[parent], heads[change]]
    assert [e["source"] for e in record] == [
        bench_record.source_hash(side) for side in (parent, change)]
    assert record[0]["source"] != record[1]["source"]
    # committed, the same tree is named by its commit
    git(change, "commit", "-q", "-am", "edit")
    assert bench_record.revision(change, {"git_commit": "c2"}) == "c2"
    # outside a git checkout the manifest has no commit either
    assert bench_record.revision(str(tmp_path), {"git_commit": None}) is None
