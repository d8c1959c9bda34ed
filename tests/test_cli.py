import csv
import glob
import json
import os

import numpy as np
import pytest

from fgsam import cli


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    out = str(d / "graph")
    assert run_cli("gen-csbm", "--k", "8", "--nodes-per-class", "25",
                   "--p", "0.35", "--q", "0.05", "--dist", "3",
                   "--dim", "8", "--seed", "0", "--out", out) == 0
    return out


FSNC_FLAGS = ["--episodes", "15", "--repeats", "1", "--val-interval", "5",
              "--val-tasks", "4", "--test-tasks", "6", "--patience", "3",
              "--hidden", "8", "--split", "4/2/2", "--k", "2",
              "--rho", "0.05", "--lambda", "0.5", "--seed", "0"]


def report_payload(outdir):
    rep = json.load(open(os.path.join(outdir, "report.json")))
    rep.pop("wall_seconds", None)
    traces = []
    pattern = os.path.join(outdir, "trace*.csv")
    for path in sorted(glob.glob(pattern)):
        rows = list(csv.DictReader(open(path)))
        for row in rows:
            row.pop("wall_ms", None)
        traces.append(rows)
    return rep, traces


class TestGenCsbm:
    def test_writes_graph_and_echo(self, graph_dir):
        for name in ("edges.csv", "features.csv", "labels.csv", "meta.json",
                     "config_echo.json"):
            assert os.path.exists(os.path.join(graph_dir, name))
        meta = json.load(open(os.path.join(graph_dir, "meta.json")))
        assert meta["n"] == 200 and meta["num_classes"] == 8

    def test_missing_out_fails(self):
        assert run_cli("gen-csbm", "--k", "2") == 1


class TestFsnc:
    def test_pipeline_smoke(self, graph_dir, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("fsnc", "--graph", graph_dir, "--out", out,
                       "--optimizer", "fgsam+", *FSNC_FLAGS) == 0
        rep = json.load(open(os.path.join(out, "report.json")))
        assert 0.0 <= rep["test_acc_mean"] <= 1.0
        assert rep["config"]["optimizer"] == "fgsam+"
        assert os.path.exists(os.path.join(out, "config_echo.ini"))

    def test_rerun_from_echo_identical(self, graph_dir, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert run_cli("fsnc", "--graph", graph_dir, "--out", out1,
                       "--optimizer", "sam", *FSNC_FLAGS) == 0
        echo = os.path.join(out1, "config_echo.ini")
        assert run_cli("fsnc", "--config", echo, "--out", out2) == 0
        assert report_payload(out1) == report_payload(out2)

    def test_flags_override_config(self, graph_dir, tmp_path):
        out1 = str(tmp_path / "c")
        assert run_cli("fsnc", "--graph", graph_dir, "--out", out1,
                       "--optimizer", "adam", *FSNC_FLAGS) == 0
        echo = os.path.join(out1, "config_echo.ini")
        out2 = str(tmp_path / "d")
        assert run_cli("fsnc", "--config", echo, "--out", out2,
                       "--episodes", "7") == 0
        rep = json.load(open(os.path.join(out2, "report.json")))
        assert rep["config"]["episodes"] == 7

    def test_missing_graph(self, tmp_path):
        assert run_cli("fsnc", "--out", str(tmp_path / "x")) == 1


class TestCompare:
    def test_paired_arms_and_cost_report(self, graph_dir, tmp_path):
        out = str(tmp_path / "cmp")
        assert run_cli("compare", "--graph", graph_dir, "--out", out,
                       *FSNC_FLAGS) == 0
        reports = {}
        for name in ("adam", "sam", "fgsam", "fgsam+"):
            reports[name] = json.load(
                open(os.path.join(out, name, "report.json")))
        seeds = {name: rep["config"]["seed"] for name, rep in reports.items()}
        assert len(set(seeds.values())) == 1
        rows = list(csv.DictReader(open(os.path.join(out,
                                                     "cost_report.csv"))))
        byname = {r["optimizer"]: r for r in rows}
        T = reports["adam"]["gnn_evals"]
        assert int(byname["sam"]["gnn_evals"]) == 2 * T
        assert int(byname["fgsam"]["mlp_evals"]) == T
        assert os.path.exists(os.path.join(out, "cost_report.meta.json"))

    def test_threaded_matches_serial(self, graph_dir, tmp_path):
        out1 = str(tmp_path / "serial")
        out2 = str(tmp_path / "threads")
        assert run_cli("compare", "--graph", graph_dir, "--out", out1,
                       *FSNC_FLAGS) == 0
        os.environ["FGSAM_THREADS"] = "4"
        try:
            assert run_cli("compare", "--graph", graph_dir, "--out", out2,
                           *FSNC_FLAGS) == 0
        finally:
            del os.environ["FGSAM_THREADS"]
        for name in ("adam", "sam", "fgsam", "fgsam+"):
            assert (report_payload(os.path.join(out1, name)) ==
                    report_payload(os.path.join(out2, name)))

    def test_adam_arm_matches_standalone_fsnc(self, graph_dir, tmp_path):
        out_cmp = str(tmp_path / "cmp2")
        out_solo = str(tmp_path / "solo")
        assert run_cli("compare", "--graph", graph_dir, "--out", out_cmp,
                       *FSNC_FLAGS) == 0
        assert run_cli("fsnc", "--graph", graph_dir, "--out", out_solo,
                       "--optimizer", "adam", *FSNC_FLAGS) == 0
        assert (report_payload(os.path.join(out_cmp, "adam")) ==
                report_payload(out_solo))


class TestNc:
    def test_smoke_and_echo_rerun(self, graph_dir, tmp_path):
        out1 = str(tmp_path / "nc1")
        out2 = str(tmp_path / "nc2")
        assert run_cli("nc", "--graph", graph_dir, "--out", out1,
                       "--optimizer", "fgsam", "--episodes", "20",
                       "--rho", "0.05", "--seed", "2") == 0
        rep = json.load(open(os.path.join(out1, "report.json")))
        assert 0.0 <= rep["test_acc"] <= 1.0
        echo = os.path.join(out1, "config_echo.ini")
        assert run_cli("nc", "--config", echo, "--out", out2) == 0
        assert report_payload(out1) == report_payload(out2)


class TestAnalysisCommands:
    def test_verify_theorem_exit_zero(self, capsys):
        assert run_cli("verify-theorem", "--k", "3", "--p", "0.6",
                       "--q", "0.1", "--dist", "2", "--dim", "4") == 0
        out = capsys.readouterr().out
        assert "w.b" in out

    def test_landscape(self, graph_dir, tmp_path):
        out = str(tmp_path / "land")
        assert run_cli("landscape", "--graph", graph_dir, "--out", out,
                       "--grid-points", "11", "--grid-range", "0.5") == 0
        rows = list(csv.reader(open(os.path.join(out, "landscape.csv"))))
        assert rows[0] == ["alpha", "loss"]
        assert len(rows) == 12

    def test_drift(self, graph_dir, tmp_path):
        out = str(tmp_path / "drift")
        assert run_cli("drift", "--graph", graph_dir, "--out", out,
                       "--episodes", "12", "--k", "2", "--val-interval", "50",
                       "--split", "4/2/2") == 0
        rows = list(csv.DictReader(open(os.path.join(out, "drift.csv"))))
        assert len(rows) == 5  # 6 exact steps -> 5 drifts
        assert "g_v_drift" in rows[0]

    def test_rho_sweep(self, graph_dir, tmp_path):
        out = str(tmp_path / "sweep")
        assert run_cli("rho-sweep", "--graph", graph_dir, "--out", out,
                       "--optimizer", "fgsam", "--episodes", "6",
                       "--val-interval", "50", "--split", "4/2/2",
                       "--rhos", "0.01,0.1") == 0
        rows = list(csv.DictReader(open(os.path.join(out, "rho_sweep.csv"))))
        assert {float(r["rho"]) for r in rows} == {0.01, 0.1}

    def test_check_grads(self, capsys):
        assert run_cli("check-grads", "--instances", "4") == 0
        assert "max relative error" in capsys.readouterr().out


class TestErrors:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bogus")
        assert exc.value.code == 2

    def test_unknown_config_key(self, graph_dir, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[protocol]\nbogus_key = 1\n")
        assert run_cli("fsnc", "--graph", graph_dir,
                       "--out", str(tmp_path / "x"),
                       "--config", str(cfg)) == 1

    def test_unknown_config_section(self, graph_dir, tmp_path):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text("[mystery]\nx = 1\n")
        assert run_cli("fsnc", "--graph", graph_dir,
                       "--out", str(tmp_path / "y"),
                       "--config", str(cfg)) == 1

    def test_truncated_checkpoint(self, graph_dir, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(bytes(10))
        assert run_cli("landscape", "--graph", graph_dir,
                       "--out", str(tmp_path / "land"),
                       "--checkpoint", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and err.count("\n") == 1

    def test_bad_split(self, graph_dir, tmp_path):
        assert run_cli("fsnc", "--graph", graph_dir,
                       "--out", str(tmp_path / "z"),
                       "--split", "4/4") == 1
