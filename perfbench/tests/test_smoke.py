import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import bench
import workloads as wl
from conftest import BENCH
from test_tracing import tiny

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["nc-bench", "fsnc-large", "fsnc-small"])
def test_tiny_run_reports_every_metric(name, trace):
    metrics, check, details = bench.measure(tiny(name), 0, 1e-3, trace, None)
    assert check.failed == 0 and check.attempted > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(m["name"] for m in listed) == sorted(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    assert details["rounds"] == 1
    if trace:
        assert details["calibration"] is None
    else:
        cal = details["calibration"]
        # sampled before the set-ups and after each set-up and arm
        assert len(cal["samples_s"]) == 1 + wl.SETUPS_PER_ROUND + 4
        for key, value in cal["unscaled"].items():
            if key != "peak_rss_mb":
                assert metrics[key] == pytest.approx(value * cal["scale"])


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        bench.wl.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fsnc-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_any_seed_selects_a_variant_with_stored_reference():
    n = bench.wl.VARIANTS
    args = bench.parse_args(["--workload", "fsnc-small", "--seconds", "1",
                             "--trace", "0", "--seed", str(123456789)])
    assert args.seed == 123456789
    assert [bench.wl.variant_of(s) for s in (0, 17, n, n + 17, -1)] == [
        0, 17, 0, 17, n - 1]


def test_arm_order_is_a_fixed_shuffle_per_round():
    orders = [wl.arm_order(i) for i in range(8)]
    assert all(sorted(o) == sorted(wl.ARMS) for o in orders)
    assert orders == [wl.arm_order(i) for i in range(8)]
    assert len({tuple(o) for o in orders}) > 1
