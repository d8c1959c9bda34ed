"""The bit-exactness digest of `tools/trace_digest.py` on hand-made arm
results; no workload runs."""

import math
import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import trace_digest  # noqa: E402


def arms(loss=0.6723332357291967, wall_ms=0.85):
    row = {"step": 0, "loss": loss, "grad_norm": 0.118, "gv_norm": math.nan,
           "branch": "n/a", "flags": "", "gnn_evals_cum": 1,
           "wall_ms": wall_ms}
    return [SimpleNamespace(arm=arm, trace=[dict(row), dict(row, step=1)],
                            gnn_evals=2, mlp_evals=0, test_acc=0.5,
                            best_val_acc=0.75)
            for arm in ("adam", "sam")]


def test_digest_ignores_wall_time():
    assert trace_digest.digest(arms()) == trace_digest.digest(
        arms(wall_ms=123.0))
    assert len(trace_digest.digest(arms())) == 64


def test_digest_moves_with_one_ulp_of_one_loss():
    base = arms()
    moved = arms()
    moved[1].trace[1]["loss"] = math.nextafter(moved[1].trace[1]["loss"],
                                               math.inf)
    assert trace_digest.digest(base) != trace_digest.digest(moved)


def test_digest_covers_counts_and_accuracies():
    base = trace_digest.digest(arms())
    for name, value in (("gnn_evals", 3), ("mlp_evals", 1),
                        ("test_acc", 0.25), ("best_val_acc", 0.5),
                        ("arm", "fgsam")):
        changed = arms()
        setattr(changed[0], name, value)
        assert trace_digest.digest(changed) != base, name
