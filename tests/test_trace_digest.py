"""The bit-exactness digests of `tools/trace_digest.py` on hand-made arm
results and a hand-made run directory; no workload or command runs."""

import json
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


def run_dir(path, loss=0.6723332357291967, wall_ms=0.85, wall_seconds=1.5):
    """A run directory like `fgsam fsnc`'s: a report, a trace and an echo."""
    path.mkdir(exist_ok=True)
    (path / "report.json").write_text(json.dumps(
        {"test_acc_mean": 0.5, "wall_seconds": wall_seconds,
         "repeats": [{"best_val_acc": 0.75, "wall_seconds": wall_seconds,
                      "trace_path": "trace_r0.csv"}]}))
    (path / "trace_r0.csv").write_text(
        "step,loss,wall_ms\n"
        f"0,{loss:.17g},{wall_ms:.17g}\n1,0.5,{wall_ms:.17g}\n")
    (path / "config_echo.ini").write_text("[run]\nseed = 0\n\n")
    return str(path)


def test_run_dir_digest_ignores_wall_fields(tmp_path):
    base = trace_digest.digest_run_dir(run_dir(tmp_path / "a"))
    assert base == trace_digest.digest_run_dir(run_dir(
        tmp_path / "b", wall_ms=123.0, wall_seconds=9.25))
    assert len(base) == 64


def test_run_dir_digest_moves_with_one_ulp_of_one_loss(tmp_path):
    loss = 0.6723332357291967
    assert trace_digest.digest_run_dir(run_dir(tmp_path / "a", loss)) != (
        trace_digest.digest_run_dir(run_dir(
            tmp_path / "b", math.nextafter(loss, math.inf))))


def test_run_dir_digest_covers_every_file(tmp_path):
    base = trace_digest.digest_run_dir(run_dir(tmp_path / "a"))
    echo = tmp_path / "b"
    run_dir(echo)
    (echo / "config_echo.ini").write_text("[run]\nseed = 1\n\n")
    assert trace_digest.digest_run_dir(str(echo)) != base
    extra = tmp_path / "c"
    run_dir(extra)
    (extra / "best.ckpt").write_bytes(b"")
    assert trace_digest.digest_run_dir(str(extra)) != base
