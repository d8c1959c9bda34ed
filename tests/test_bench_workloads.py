"""One protocol round of each benchmark workload, set up and run through
`perfbench/workloads.py` and checked by `perfbench/checks.py` against the
stored reference outputs, so that a change which breaks the benchmark's
output check fails here. The benchmark files are loaded read-only, from
their own directory, under names of their own."""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
NAMES = ("nc-bench", "fsnc-large", "fsnc-small")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """(workloads, checks); `workloads` imports `hostspeed` by its plain
    name, which is bound only while it loads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "hostspeed", _load("hostspeed"))
        workloads = _load("workloads")
    return workloads, _load("checks")


def test_every_workload_is_run_here(bench):
    workloads, _ = bench
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_round_matches_reference(bench, name):
    wl, checks = bench
    workload = wl.WORKLOADS[name]
    variant = wl.variant_of(0)
    reference = checks.load_reference(
        os.path.join(PERFBENCH, "reference.json"), workload,
        wl.spec(workload), variant)
    inputs = wl.setup(workload, variant)
    total = checks.CheckResult()
    for result in wl.run_round(workload, inputs, variant):
        total.add(checks.check_arm(workload, result, wl.HP.k,
                                   reference[result.arm]))
    assert total.attempted == len(wl.ARMS) * (workload.steps
                                              + workload.eval_tasks)
    assert total.failed == 0, total.problems
