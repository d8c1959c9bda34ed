import copy

import pytest

import checks
import workloads as wl
from test_tracing import tiny


@pytest.fixture(scope="module")
def round_results():
    workload = tiny("fsnc-small")
    inputs = wl.setup(workload, 0)
    return workload, wl.run_round(workload, inputs, 0)


def test_expected_ledger_fgsam_plus():
    rows = [checks.expected_ledger("fgsam+", t, 2) for t in range(4)]
    assert rows == [(1, 2, "exact"), (1, 3, "approx"), (2, 5, "exact"),
                    (2, 6, "approx")]


def test_correct_outputs_pass_against_their_reference(round_results):
    workload, results = round_results
    for res in results:
        ref = checks.reference_entry(res)
        out = checks.check_arm(workload, res, wl.HP.k, ref)
        assert out.failed == 0 and out.problems == []
        assert out.attempted == workload.steps + workload.eval_tasks


@pytest.mark.parametrize("arm_index", range(4))
def test_miscounted_ledger_fails(round_results, arm_index):
    workload, results = round_results
    res = copy.deepcopy(results[arm_index])
    res.trace[1]["gnn_evals_cum"] += 1
    out = checks.check_arm(workload, res, wl.HP.k)
    assert out.failed == 1 and "ledger" in out.problems[0]

    res = copy.deepcopy(results[arm_index])
    res.mlp_evals += 1
    assert checks.check_arm(workload, res, wl.HP.k).failed == 1


def test_nonfinite_loss_and_reference_mismatch_fail(round_results):
    workload, results = round_results
    res = copy.deepcopy(results[0])
    ref = checks.reference_entry(res)
    res.trace[0]["loss"] = float("nan")
    assert checks.check_arm(workload, res, wl.HP.k, ref).failed == 1

    res = copy.deepcopy(results[0])
    wrong = dict(ref, last_loss=ref["last_loss"] * (1 + 1e-4))
    assert checks.check_arm(workload, res, wl.HP.k, wrong).failed == 1
    wrong = dict(ref, test_acc=ref["test_acc"] - 0.1)
    assert (checks.check_arm(workload, res, wl.HP.k, wrong).failed
            == workload.test_tasks)


def test_early_stop_counts_missing_steps(round_results):
    workload, results = round_results
    res = copy.deepcopy(results[0])
    del res.trace[-1]
    out = checks.check_arm(workload, res, wl.HP.k)
    assert out.failed == 1
