"""Output checks for one arm of one protocol round: the exact evaluation
ledger, finite losses and accuracies, and agreement with the reference
outputs stored in `reference.json`.

Every optimizer step and every evaluation task is one operation. A step
fails when its loss is not finite, when its cumulative GNN/MLP evaluation
counts or its FGSAM+ branch differ from the optimizer's definition, or when
it is missing (the run stopped early). The last step also fails when the
arm's ledger totals or its last training loss differ from the reference.
The validation tasks fail together when the best validation accuracy does,
and the test tasks when the final test accuracy does.
"""

import json
import math
from dataclasses import dataclass, field

# Exact equality cannot be the gate: BLAS thread count alone moves the last
# digits of the training loss.
LOSS_RTOL = 1e-6
ACC_ATOL = 0.01


class ReferenceError(ValueError):
    pass


def expected_ledger(arm: str, step: int, k: int):
    """(gnn_evals_cum, mlp_evals_cum, branch) after 0-based `step`."""
    n = step + 1
    if arm == "adam":
        return n, 0, "n/a"
    if arm == "sam":
        return 2 * n, 0, "n/a"
    if arm == "fgsam":
        return n, n, "n/a"
    if arm == "fgsam+":
        exact = step // k + 1
        branch = "exact" if step % k == 0 else "approx"
        return exact, 2 * exact + (n - exact), branch
    raise ValueError(f"unknown arm {arm!r}")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _close(value, ref, rtol=0.0, atol=0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def check_arm(workload, result, k: int, reference=None) -> CheckResult:
    """Check one ArmResult; `reference` holds the arm's stored outputs, or
    is None to skip the reference comparison."""
    out = CheckResult()
    arm = result.arm

    def fail(count, message):
        out.failed += count
        out.problems.append(f"{workload.name}/{arm}: {message}")

    out.attempted += workload.steps
    trace = result.trace[:workload.steps]
    if len(trace) < workload.steps:
        fail(workload.steps - len(trace),
             f"{len(trace)} of {workload.steps} steps ran")
    bad = {}
    for t, row in enumerate(trace):
        want = expected_ledger(arm, t, k)
        got = (row["gnn_evals_cum"], row["mlp_evals_cum"], row["branch"])
        if not math.isfinite(row["loss"]):
            bad.setdefault(t, f"step {t} loss {row['loss']}")
        elif got != want:
            bad.setdefault(t, f"step {t} ledger {got} != {want}")
    last = workload.steps - 1
    want_total = expected_ledger(arm, last, k)[:2]
    if (result.gnn_evals, result.mlp_evals) != want_total:
        bad.setdefault(last, f"ledger totals "
                             f"{(result.gnn_evals, result.mlp_evals)} "
                             f"!= {want_total}")
    elif reference is not None and len(trace) == workload.steps and not _close(
            trace[-1]["loss"], reference["last_loss"], rtol=LOSS_RTOL):
        bad.setdefault(last, f"last loss {trace[-1]['loss']!r} != "
                             f"reference {reference['last_loss']!r}")
    for message in bad.values():
        fail(1, message)

    test_tasks = workload.test_tasks if workload.episodic else 1
    val_tasks = workload.eval_tasks - test_tasks
    out.attempted += val_tasks + test_tasks
    for tasks, key, value in ((val_tasks, "best_val_acc", result.best_val_acc),
                              (test_tasks, "test_acc", result.test_acc)):
        if not math.isfinite(value):
            fail(tasks, f"{key} {value}")
        elif reference is not None and not _close(value, reference[key],
                                                  atol=ACC_ATOL):
            fail(tasks, f"{key} {value!r} != reference {reference[key]!r}")
    return out


def reference_entry(result) -> dict:
    return {"test_acc": result.test_acc, "best_val_acc": result.best_val_acc,
            "last_loss": result.trace[-1]["loss"]}


def load_reference(path: str, workload, spec: dict, variant: int) -> dict:
    """Arm -> stored outputs for one input variant of `workload`."""
    with open(path) as fh:
        stored = json.load(fh)
    entry = stored.get(workload.name)
    if entry is None:
        raise ReferenceError(f"no reference for workload {workload.name}")
    if entry["spec"] != spec:
        raise ReferenceError(f"reference for {workload.name} was made with "
                             "other settings; regenerate it")
    arms = entry["variants"].get(str(variant))
    if arms is None:
        raise ReferenceError(f"no reference for {workload.name} "
                             f"variant {variant}")
    return arms
