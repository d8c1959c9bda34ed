import argparse
import configparser
import csv
import json
import math
import os
import re
import shlex
import shutil
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fgsam import cli, fsnc, graphcore, optim
from fgsam import model as mdl
from fgsam.graphcore import load_graph
from full_graph_oracle import filled
from run_dir_reader import read_run_dir


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


def record_clock(monkeypatch, events):
    """Append "clock" to `events` at each reading of `fsnc`'s clock."""
    clock = fsnc.time.perf_counter
    monkeypatch.setattr(fsnc, "time", SimpleNamespace(
        perf_counter=lambda: events.append("clock") or clock()))


FSNC_FLAGS = ["--episodes", "15", "--repeats", "1", "--val-interval", "5",
              "--val-tasks", "4", "--test-tasks", "6", "--patience", "3",
              "--hidden", "8", "--split", "4/2/2", "--k", "2",
              "--rho", "0.05", "--lambda", "0.5", "--seed", "0"]


def assert_rerun_from_echo_identical(graph_dir, tmp_path, command, flags):
    """Run `command` (on `graph_dir` unless it is None), re-run it from its
    config_echo.ini alone, and require the two run directories to match
    file for file."""
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    graph = [] if graph_dir is None else ["--graph", graph_dir]
    assert run_cli(command, *graph, "--out", out1, *flags) == 0
    echo = os.path.join(out1, "config_echo.ini")
    assert run_cli(command, "--config", echo, "--out", out2) == 0
    assert read_run_dir(out1) == read_run_dir(out2)


class TestGenCsbm:
    def test_writes_graph_and_echo(self, graph_dir):
        for name in ("edges.csv", "features.csv", "labels.csv", "meta.json",
                     "config_echo.ini"):
            assert os.path.exists(os.path.join(graph_dir, name))
        meta = json.load(open(os.path.join(graph_dir, "meta.json")))
        assert meta["n"] == 200 and meta["num_classes"] == 8

    def test_missing_out_fails(self):
        assert run_cli("gen-csbm", "--k", "2") == 1


def write_checkpoint(path, classes=8, hidden=16):
    """A two-layer checkpoint for the 8-dimensional test graph."""
    dims = mdl.uniform_dims(8, hidden, classes, 2)
    mdl.save_checkpoint(path, mdl.init_params(dims, 0), hidden)
    return path


class TestEchoRerun:
    @pytest.mark.parametrize("command, on_graph, flags", [
        ("gen-csbm", False, ["--k", "3", "--nodes-per-class", "10",
                             "--p", "0.4", "--dim", "5", "--seed", "4"]),
        ("landscape", True, ["--grid-points", "5", "--slice-dims", "2",
                             "--layers", "3", "--hidden", "4", "--seed", "1"]),
        ("landscape", True, ["--grid-points", "5", "--checkpoint", None]),
        ("bench", False, ["--episodes", "1", "--rho", "0.1"]),
    ], ids=["gen-csbm", "landscape", "landscape-checkpoint", "bench"])
    def test_rerun_from_echo_identical(self, graph_dir, tmp_path, command,
                                       on_graph, flags):
        ckpt = str(tmp_path / "model.ckpt")
        flags = [write_checkpoint(ckpt) if f is None else f for f in flags]
        assert_rerun_from_echo_identical(graph_dir if on_graph else None,
                                         tmp_path, command, flags)


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
        assert_rerun_from_echo_identical(graph_dir, tmp_path, "fsnc",
                                         ["--optimizer", "sam", *FSNC_FLAGS])

    @pytest.mark.parametrize("command, flags", [
        ("drift", ["--episodes", "12", "--k", "2", "--val-interval", "50",
                   "--split", "4/2/2"]),
        ("rho-sweep", ["--optimizer", "fgsam", "--episodes", "6",
                       "--val-interval", "50", "--split", "4/2/2",
                       "--rhos", "0.01,0.1"]),
        ("compare", ["--episodes", "6", "--repeats", "1", "--val-interval",
                     "50", "--test-tasks", "4", "--split", " 4/2/2"]),
    ], ids=["drift", "rho-sweep", "compare"])
    def test_rerun_from_echo_identical_other_commands(self, graph_dir,
                                                      tmp_path, command,
                                                      flags):
        assert_rerun_from_echo_identical(graph_dir, tmp_path, command, flags)

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


    def test_rerun_with_fewer_repeats_deletes_stale_traces(self, graph_dir,
                                                           tmp_path):
        out = tmp_path / "fsnc"
        out.mkdir()
        kept = ["notes.csv", "trace_r01.csv", "trace_x.csv", "trace.csv.bak"]
        for name in kept:
            (out / name).write_text("kept\n")
        flags = ["--graph", graph_dir, "--out", str(out), "--episodes", "5",
                 "--val-interval", "5", "--val-tasks", "2", "--test-tasks",
                 "2", "--split", "4/2/2"]
        assert run_cli("fsnc", *flags, "--repeats", "2") == 0
        assert (out / "trace_r1.csv").exists()
        assert run_cli("fsnc", *flags, "--repeats", "1") == 0
        report = json.loads((out / "report.json").read_text())
        named = [rep["trace_path"] for rep in report["repeats"]]
        assert named == ["trace_r0.csv"]
        assert sorted(os.listdir(out)) == sorted(
            kept + named + ["config_echo.ini", "report.json"])
        # an nc run in the same directory names trace.csv only
        assert run_cli("nc", "--graph", graph_dir, "--out", str(out),
                       "--episodes", "2") == 0
        assert sorted(os.listdir(out)) == sorted(
            kept + ["best.ckpt", "config_echo.ini", "report.json",
                    "trace.csv"])
        for name in kept:
            assert (out / name).read_text() == "kept\n"


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
        # 4 x (report, trace), cost report + meta, echo
        assert len(read_run_dir(out)) == 11

    def test_matrix_built_once_before_the_arms(self, graph_dir, tmp_path,
                                               monkeypatch):
        # before adam, the first arm, reads its clock, so no arm's wall
        # time carries the build
        events = []
        build = graphcore._BUILDERS["gcn-sym"]
        monkeypatch.setitem(graphcore._BUILDERS, "gcn-sym",
                            lambda graph: events.append("build")
                            or build(graph))
        record_clock(monkeypatch, events)
        assert run_cli("compare", "--graph", graph_dir, "--out",
                       str(tmp_path / "cmp"), *FSNC_FLAGS) == 0
        assert events[:2] == ["build", "clock"]
        assert events.count("build") == 1

    def test_tasks_drawn_once_before_the_arms(self, graph_dir, tmp_path,
                                              monkeypatch):
        # every repeat's tasks are drawn before adam, the first arm, reads
        # its clock, so no arm's wall time carries them
        events = []
        draw = fsnc.repeat_tasks
        monkeypatch.setattr(fsnc, "repeat_tasks", lambda *args: (
            events.append(("draw", args[-1])), draw(*args))[1])
        record_clock(monkeypatch, events)
        assert run_cli("compare", "--graph", graph_dir, "--out",
                       str(tmp_path / "cmp"), *FSNC_FLAGS, "--repeats",
                       "3") == 0
        first = events.index("clock")
        assert events[:first] == [("draw", root) for root in range(3)]
        assert set(events[first:]) == {"clock"}

    def test_adam_arm_matches_standalone_fsnc(self, graph_dir, tmp_path):
        out_cmp = str(tmp_path / "cmp2")
        out_solo = str(tmp_path / "solo")
        assert run_cli("compare", "--graph", graph_dir, "--out", out_cmp,
                       *FSNC_FLAGS) == 0
        assert run_cli("fsnc", "--graph", graph_dir, "--out", out_solo,
                       "--optimizer", "adam", *FSNC_FLAGS) == 0
        solo = read_run_dir(out_solo)
        del solo["config_echo.ini"]    # compare writes one for all arms
        assert read_run_dir(os.path.join(out_cmp, "adam")) == solo


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
        assert read_run_dir(out1) == read_run_dir(out2)


class TestNcCheckpoint:
    def test_landscape_at_best_weights(self, graph_dir, tmp_path):
        out = str(tmp_path / "nc")
        assert run_cli("nc", "--graph", graph_dir, "--out", out,
                       "--optimizer", "fgsam", "--episodes", "30",
                       "--rho", "0.05", "--seed", "3") == 0
        ckpt = os.path.join(out, "best.ckpt")
        land = str(tmp_path / "land")
        assert run_cli("landscape", "--graph", graph_dir, "--out", land,
                       "--grid-points", "3", "--checkpoint", ckpt) == 0
        meta = json.load(open(os.path.join(land, "landscape.meta.json")))
        # the same run outside the CLI: its best weights are the checkpoint
        graph = load_graph(graph_dir)
        config = fsnc.NCConfig(steps=30, optimizer="fgsam",
                               hp=optim.Hyperparams(rho=0.05, k=2), seed=3)
        report = fsnc.standard_nc_train(config, graph,
                                        cli.make_nc_masks(graph, 3))
        params, hidden = mdl.load_checkpoint(ckpt)
        assert hidden == config.hidden
        assert np.array_equal(params.flatten(), report.best_params)
        spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                         graph.num_classes)
        acts = mdl.forward(params, graph, filled(graph, "gcn-sym"))
        assert meta["base_loss"] == mdl.loss(acts, spec, params)


def strict_json(text):
    """`text` parsed as strict JSON, which has no NaN or infinities."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def assert_json_bytes(path):
    """The file is `json.dump(..., indent=2)` of its content plus a final
    newline, and is returned parsed as strict JSON."""
    with open(path) as fh:
        text = fh.read()
    content = strict_json(text)
    assert text.splitlines()[1].startswith('  "')
    assert text.endswith("}\n")
    assert text == json.dumps(content, indent=2) + "\n"
    return content


def assert_csv_bytes(path):
    """CRLF rows whose finite float cells keep every digit (`.17g`);
    returns the header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if math.isfinite(value):
                assert format(value, ".17g") == cell, (path, cell)
    return tuple(rows[0])


class TestRunDirBytes:
    """The bytes of the run directories: the echo re-run tests and
    criterion 10 compare parsed files, so a moved key, a changed float
    format or a lost final newline shows only here."""

    TRAIN_KEYS = ["config", "test_acc_mean", "test_acc_std", "gnn_evals",
                  "mlp_evals", "wall_seconds", "repeats"]
    REPEAT_KEYS = ["seed", "stop_episode", "best_val_acc", "test_acc_mean",
                   "test_acc_std", "trace_path"]
    NC_KEYS = ["config", "stop_step", "best_val_acc", "test_acc",
               "gnn_evals", "mlp_evals", "wall_seconds", "trace_path"]
    TRACE_HEADER = ("step", "loss", "grad_norm", "gv_norm", "gG_norm",
                    "branch", "flags", "gnn_evals_cum", "mlp_evals_cum",
                    "wall_ms")

    def test_report_trace_and_table_bytes(self, graph_dir, tmp_path):
        runs = {
            "fsnc": ("fsnc", FSNC_FLAGS),
            # 5 episodes, validation every 10: no round, null best_val_acc
            "fsnc-no-val": ("fsnc", ["--episodes", "5", "--val-interval",
                                     "10", "--repeats", "1", "--test-tasks",
                                     "5", "--split", "4/2/2"]),
            "nc": ("nc", ["--optimizer", "fgsam", "--episodes", "20"]),
            "landscape": ("landscape", ["--grid-points", "3",
                                        "--slice-dims", "2"]),
        }
        for name, (command, flags) in runs.items():
            assert run_cli(command, "--graph", graph_dir, "--out",
                           str(tmp_path / name), *flags) == 0
        written = {name: sorted(read_run_dir(str(tmp_path / name)))
                   for name in runs}
        assert written == {
            "fsnc": ["config_echo.ini", "report.json", "trace_r0.csv"],
            "fsnc-no-val": ["config_echo.ini", "report.json", "trace_r0.csv"],
            "nc": ["best.ckpt", "config_echo.ini", "report.json",
                   "trace.csv"],
            "landscape": ["config_echo.ini", "landscape.csv",
                          "landscape.meta.json"],
        }
        val_accs = {}
        for name in ("fsnc", "fsnc-no-val"):
            report = assert_json_bytes(tmp_path / name / "report.json")
            assert list(report) == self.TRAIN_KEYS
            assert [list(rep) for rep in report["repeats"]] == [
                self.REPEAT_KEYS]
            val_accs[name] = report["repeats"][0]["best_val_acc"]
            assert (assert_csv_bytes(tmp_path / name / "trace_r0.csv")
                    == self.TRACE_HEADER == fsnc.TRACE_COLUMNS)
        assert 0.0 <= val_accs["fsnc"] <= 1.0
        assert val_accs["fsnc-no-val"] is None
        report = assert_json_bytes(tmp_path / "nc" / "report.json")
        assert list(report) == self.NC_KEYS
        assert (assert_csv_bytes(tmp_path / "nc" / "trace.csv")
                == self.TRACE_HEADER)
        meta = assert_json_bytes(tmp_path / "landscape" /
                                 "landscape.meta.json")
        assert list(meta)[:2] == ["command", "seed"]
        assert meta["command"] == "landscape"
        assert (assert_csv_bytes(tmp_path / "landscape" / "landscape.csv")
                == ("alpha", "beta", "loss"))

    @pytest.mark.parametrize("command", ["fsnc", "nc"])
    def test_run_without_validation_writes_null(self, graph_dir, tmp_path,
                                                command):
        # 5 steps, validation every 10: no round, so no best validation
        # accuracy, which JSON cannot write as NaN
        out = tmp_path / command
        assert run_cli(command, "--graph", graph_dir, "--out", str(out),
                       "--episodes", "5", "--val-interval", "10") == 0
        report = strict_json((out / "report.json").read_text())
        records = report.get("repeats", [report])
        assert records and all(r["best_val_acc"] is None for r in records)


class TestTraceFlags:
    """Each trace row's `flags` cell names the step's degenerate cases,
    joined by ";", and is empty when there are none."""

    @staticmethod
    def trace_rows(out):
        with open(os.path.join(out, "trace.csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def test_zero_gnn_gradient_reads_back_as_zero_grad(self, graph_dir,
                                                       tmp_path, monkeypatch):
        # every GNN gradient zeroed: FGSAM's ascent step is degenerate
        gnn_grad = optim.Objective.gnn_grad

        def zero_grad(self, w):
            value, grad = gnn_grad(self, w)
            return value, grad * 0.0

        monkeypatch.setattr(optim.Objective, "gnn_grad", zero_grad)
        out = str(tmp_path / "nc")
        assert run_cli("nc", "--graph", graph_dir, "--out", out,
                       "--optimizer", "fgsam", "--episodes", "3",
                       "--seed", "0") == 0
        rows = self.trace_rows(out)
        assert [row["flags"] for row in rows] == ["zero-grad"] * 3

    def test_peer_mlp_at_rho_zero_flags_every_approximate_step(
            self, graph_dir, tmp_path):
        # under the identity operator the GNN is its PeerMLP, and at rho 0
        # the perturbed gradient is the MLP's: both cached components are
        # exactly zero, and each approximate step says so
        out = str(tmp_path / "nc")
        assert run_cli("nc", "--graph", graph_dir, "--out", out,
                       "--optimizer", "fgsam+", "--scheme", "identity",
                       "--rho", "0", "--k", "2", "--episodes", "4",
                       "--seed", "0") == 0
        rows = self.trace_rows(out)
        assert [(row["branch"], row["flags"]) for row in rows] == [
            ("exact", ""), ("approx", "zero-gG;zero-gv")] * 2
        assert {row["gv_norm"] for row in rows} == {"0"}


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

    def test_input_hash_covers_labels(self, graph_dir, tmp_path):
        relabelled = str(tmp_path / "relabelled")
        shutil.copytree(graph_dir, relabelled)
        path = os.path.join(relabelled, "labels.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        swap = {"0": "1", "1": "0"}  # classes 0 and 1 trade places
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:1] + [swap.get(line, line)
                                            for line in lines[1:]]) + "\n")
        hashes = []
        for name, graph in (("a", graph_dir), ("b", graph_dir),
                            ("c", relabelled)):
            out = str(tmp_path / name)
            assert run_cli("landscape", "--graph", graph, "--out", out,
                           "--grid-points", "3") == 0
            with open(os.path.join(out, "landscape.meta.json")) as fh:
                hashes.append(json.load(fh)["input_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

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

    @pytest.mark.parametrize("points, grid_range", [(23, "0.1"),
                                                    (19, "0.333")])
    def test_landscape_grid_holds_zero(self, graph_dir, tmp_path, points,
                                       grid_range):
        # linspace puts these grids' middle points a rounding error off 0
        out = tmp_path / "land"
        assert run_cli("landscape", "--graph", graph_dir, "--out", str(out),
                       "--grid-points", str(points), "--grid-range",
                       grid_range) == 0
        rows = list(csv.DictReader(open(out / "landscape.csv")))
        base = json.load(open(out / "landscape.meta.json"))["base_loss"]
        middle = rows[points // 2]
        assert float(middle["alpha"]) == 0.0
        assert float(middle["loss"]) == base
        assert [float(r["alpha"]) for r in rows] == [
            0.0 if i == points // 2 else a for i, a in enumerate(
                np.linspace(-float(grid_range), float(grid_range), points))]

    def test_check_grads(self, capsys):
        assert run_cli("check-grads", "--instances", "4") == 0
        assert "max relative error" in capsys.readouterr().out


class TestSettingsTable:
    def test_every_setting_read_has_a_row_typed_like_its_flag(
            self, graph_dir, tmp_path, monkeypatch):
        read = {}
        settings = cli._settings

        def recording(args):
            get = settings(args)

            def spy(name, default=None):
                read.setdefault(args.command, set()).add(name)
                return get(name, default)

            return spy

        monkeypatch.setattr(cli, "_settings", recording)
        graph = ["--graph", graph_dir]
        # drift and rho-sweep run one repeat, so they take no --repeats
        one = ["--episodes", "4", "--val-tasks", "2", "--test-tasks", "2",
               "--split", "4/2/2"]
        short = [*one, "--repeats", "1"]
        for argv in (
                ["gen-csbm", "--nodes-per-class", "5"],
                ["fsnc", *graph, *short],
                ["compare", *graph, *short],
                ["nc", *graph, "--episodes", "2"],
                ["landscape", *graph, "--grid-points", "3"],
                ["drift", *graph, *one, "--k", "2"],
                ["rho-sweep", *graph, *one, "--rhos", "0.1",
                 "--optimizer", "sam"],
                ["verify-theorem"],
                ["check-grads", "--instances", "1"],
                ["bench", "--episodes", "1"]):
            # only the commands that write a directory take --out
            writes = argv[0] not in ("verify-theorem", "check-grads")
            out = ["--out", str(tmp_path / argv[0])] if writes else []
            assert run_cli(*argv, *out) == 0
        subcommands = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)).choices
        assert set(read) == set(subcommands)
        flag_of = {name: flag for _, _, name, _, flag in cli._SETTINGS}
        for command, parser in subcommands.items():
            flags = {action.dest: action for action in parser._actions}
            for name in read[command]:
                # without a row, an INI value could be neither set nor cast
                assert name in cli._TYPES, (command, name)
                if name in flags:
                    assert (flags[name].type or str) is cli._TYPES[name], (
                        command, name)
            # a command takes the flags of exactly the settings it reads
            taken = {option for action in parser._actions
                     for option in action.option_strings}
            assert taken - {"-h", "--help"} == {"--config"} | {
                flag_of[name] for name in read[command] if flag_of[name]}, (
                command)


class TestErrors:
    @pytest.mark.parametrize("command, on_graph, flags", [
        ("gen-csbm", False, []),
        ("fsnc", True, FSNC_FLAGS),
        ("landscape", True, ["--grid-points", "3"]),
        ("bench", False, ["--episodes", "1"]),
    ], ids=["gen-csbm", "fsnc", "landscape", "bench"])
    def test_out_that_is_a_file(self, graph_dir, tmp_path, capsys, command,
                                on_graph, flags):
        out = tmp_path / "F"
        out.write_text("kept\n")
        graph = ["--graph", graph_dir] if on_graph else []
        assert run_cli(command, *graph, "--out", str(out), *flags) == 1
        captured = capsys.readouterr()
        # refused before any work: nothing printed, the file untouched
        assert captured.out == ""
        assert captured.err == (f"error: --out {out}: {out} is not a "
                                f"directory\n")
        assert out.read_text() == "kept\n"

    def test_out_under_a_file(self, graph_dir, tmp_path, capsys):
        parent = tmp_path / "F"
        parent.write_text("")
        out = parent / "sub"
        assert run_cli("nc", "--graph", graph_dir, "--out", str(out),
                       "--episodes", "2") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out}: {parent} is not a "
                                f"directory\n")

    def test_nc_with_an_empty_test_mask(self, tmp_path, capsys):
        # 2 nodes per class: one train and one validation node each
        graph = str(tmp_path / "tiny")
        assert run_cli("gen-csbm", "--k", "3", "--nodes-per-class", "2",
                       "--out", graph) == 0
        capsys.readouterr()
        out = tmp_path / "nc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("nc", "--graph", graph, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the test mask is empty\n"
        assert not out.exists()

    # the step at lr 1e200 overflows the next forward, whose loss is NaN;
    # the error is the one report of it, with no numpy warning before it
    def test_bench_stops_on_a_non_finite_loss(self, tmp_path, capsys):
        out = tmp_path / "bench"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("bench", "--episodes", "5", "--lr", "1e200",
                           "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite loss nan at step 1\n"
        assert "ratio" not in captured.out
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("command, flags, where", [
        ("nc", [], "step 1"),
        ("fsnc", ["--repeats", "1"], "repeat 0 episode 1"),
    ], ids=["nc", "fsnc"])
    def test_training_stops_on_a_non_finite_loss(self, graph_dir, tmp_path,
                                                 capsys, command, flags,
                                                 where):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, "--graph", graph_dir, "--out", str(out),
                           "--lr", "1e200", "--episodes", "5", *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: non-finite loss nan at {where}\n"
        assert not out.exists()

    def test_checkpoint_that_is_a_directory(self, graph_dir, tmp_path,
                                            capsys):
        out = tmp_path / "land"
        assert run_cli("landscape", "--graph", graph_dir, "--out", str(out),
                       "--checkpoint", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err
        assert not out.exists()

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["nc", "--way", "7"],
        ["landscape", "--rho", "5"],
        ["bench", "--way", "0"],
        ["verify-theorem", "--nodes-per-class", "5"],
        ["check-grads", "--out", "x"],
        ["rho-sweep", "--rho", "5"],
        ["rho-sweep", "--repeats", "9"],
    ], ids=["nc-way", "landscape-rho", "bench-way",
            "verify-theorem-nodes-per-class", "check-grads-out",
            "rho-sweep-rho", "rho-sweep-repeats"])
    def test_flag_the_command_does_not_read_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--layers", "--hidden"])
    def test_checkpoint_fixes_layers_and_hidden(self, graph_dir, tmp_path,
                                                capsys, flag):
        ckpt = write_checkpoint(str(tmp_path / "model.ckpt"))
        assert run_cli("landscape", "--graph", graph_dir,
                       "--out", str(tmp_path / "land"), "--checkpoint", ckpt,
                       flag, "4") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --layers and --hidden cannot")
        assert err.count("\n") == 1

    def test_unknown_config_key(self, graph_dir, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[protocol]\nbogus_key = 1\n")
        assert run_cli("fsnc", "--graph", graph_dir,
                       "--out", str(tmp_path / "x"),
                       "--config", str(cfg)) == 1

    def test_config_key_the_command_does_not_read(self, graph_dir, tmp_path,
                                                  capsys):
        cfg = tmp_path / "way.ini"
        cfg.write_text("[protocol]\nway = 7\n")
        assert run_cli("nc", "--graph", graph_dir, "--out",
                       str(tmp_path / "x"), "--episodes", "3",
                       "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            "error: config key 'way' in section [protocol] is not read "
            "by nc\n")
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("command, on_graph, flags, unread", [
        ("gen-csbm", False, ["--k", "3", "--nodes-per-class", "4"], set()),
        ("fsnc", True, ["--optimizer", "sam", "--episodes", "4",
                        "--repeats", "1", "--split", " 4/2/2"], set()),
        ("compare", True, FSNC_FLAGS, {"optimizer"}),
        ("nc", True, ["--episodes", "2", "--layers", "3"], set()),
        ("landscape", True, ["--grid-points", "3"], {"checkpoint"}),
        ("landscape", True, ["--grid-points", "3", "--checkpoint", None],
         {"layers", "hidden"}),
        ("drift", True, ["--episodes", "4", "--k", "2", "--split", "4/2/2"],
         {"optimizer", "repeats"}),
        ("rho-sweep", True, ["--optimizer", "sam", "--episodes", "4",
                             "--split", "4/2/2",
                             "--rhos", "0.1"], {"rho", "repeats"}),
        ("bench", False, ["--episodes", "1", "--alpha", "0.5"], set()),
    ], ids=["gen-csbm", "fsnc", "compare", "nc", "landscape",
            "landscape-checkpoint", "drift", "rho-sweep", "bench"])
    def test_echo_records_only_the_settings_read(self, graph_dir, tmp_path,
                                                 monkeypatch, command,
                                                 on_graph, flags, unread):
        returned = {}
        settings = cli._settings

        def recording(args):
            get = settings(args)

            def spy(name, default=None):
                value = get(name, default)
                if value is not None:
                    returned[name] = value
                return value

            return spy

        monkeypatch.setattr(cli, "_settings", recording)
        ckpt = str(tmp_path / "model.ckpt")
        flags = [write_checkpoint(ckpt) if f is None else f for f in flags]
        graph = ["--graph", graph_dir] if on_graph else []
        out = str(tmp_path / command)
        assert run_cli(command, *graph, "--out", out, *flags) == 0
        echo = configparser.ConfigParser()
        echo.read(os.path.join(out, "config_echo.ini"))
        values = {cli._NAMES[section, key]: value
                  for section in echo.sections()
                  for key, value in echo[section].items()}
        # every setting read, whether from a flag, the config or a default
        assert set(values) == set(returned) - {"out"}
        assert set(values) <= set(cli._COMMANDS[command][2])
        assert not set(values) & unread
        if "split_ratio" in values:
            assert values.pop("split_ratio") == "4/2/2"
        assert values == {name: str(returned[name]) for name in values}

    @pytest.mark.parametrize("flags", [
        ["--nodes-per-class", "-3"], ["--nodes-per-class", "0"], ["--k", "0"],
    ], ids=["nodes-per-class-negative", "nodes-per-class-zero", "k-zero"])
    def test_gen_csbm_needs_classes_and_nodes(self, tmp_path, capsys, flags):
        out = tmp_path / "g"
        assert run_cli("gen-csbm", "--out", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,dist", [
        ("verify-theorem", "nan"), ("verify-theorem", "inf"),
        ("gen-csbm", "nan"),
    ], ids=["verify-theorem-nan", "verify-theorem-inf", "gen-csbm-nan"])
    def test_csbm_distance_positive_finite(self, tmp_path, capsys, command,
                                           dist):
        out = tmp_path / "g"
        argv = ["--out", str(out)] if command == "gen-csbm" else []
        assert run_cli(command, "--dist", dist, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: mean distance D must be positive "
                                f"and finite, got {dist}\n")
        assert captured.out == "" and not out.exists()

    def test_verify_theorem_needs_two_classes(self, capsys):
        assert run_cli("verify-theorem", "--k", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need at least 2 classes")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("grid_range", ["0", "-1", "nan", "inf"])
    def test_landscape_grid_range_positive_finite(self, graph_dir, tmp_path,
                                                  capsys, grid_range):
        out = tmp_path / "land"
        assert run_cli("landscape", "--graph", graph_dir, "--out", str(out),
                       "--grid-points", "3", "--grid-range", grid_range) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid-range") and err.count("\n") == 1
        assert not out.exists()

    def test_landscape_non_finite_loss(self, graph_dir, tmp_path, capsys):
        # the far grid points overflow the forward: an error names the first
        # one, nothing is written and numpy warns of nothing
        out = tmp_path / "land"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("landscape", "--graph", graph_dir, "--out",
                           str(out), "--grid-points", "3", "--grid-range",
                           "1e300") == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: loss nan is not finite at "
                                "alpha = -1e+300\n")
        assert captured.out == "" and not out.exists()

    def test_landscape_grid_not_finite(self, graph_dir, tmp_path, capsys):
        # a finite range whose grid steps overflow
        out = tmp_path / "land"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("landscape", "--graph", graph_dir, "--out",
                           str(out), "--grid-points", "3", "--grid-range",
                           "1e308") == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --grid-range 1e+308 is too large: "
                                "the grid from -1e+308 to 1e+308 is not "
                                "finite\n")
        assert captured.out == "" and not out.exists()

    def test_bench_needs_episodes(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli("bench", "--episodes", "0", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: episodes must be positive\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command", [
        name for name, (_, _, reads) in cli._COMMANDS.items()
        if "seed" in reads])
    def test_negative_seed(self, graph_dir, tmp_path, capsys, command, given):
        reads = cli._COMMANDS[command][2]
        out = tmp_path / "run"
        argv = [command]
        if "graph" in reads:
            argv += ["--graph", graph_dir]
        if "out" in reads:
            argv += ["--out", str(out)]
        if given == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "seed.ini"
            cfg.write_text("[run]\nseed = -1\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        # refused before any work: nothing printed and nothing written
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command, flags, config", [
        ("fsnc", ["--split", "4/x/2"], None),
        ("rho-sweep", ["--rhos", "0.1,abc"], None),
        ("rho-sweep", ["--rhos", "0.1,0.1"], None),
        ("fsnc", [], "[protocol]\nway = two\n"),
        ("fsnc", [], "way = 2\n"),
        ("nc", ["--episodes", "0"], None),
        ("nc", ["--patience", "0"], None),
        ("nc", ["--val-interval", "0"], None),
        ("nc", ["--layers", "0"], None),
        ("nc", ["--hidden", "0"], None),
        ("landscape", ["--grid-points", "-5"], None),
        ("landscape", ["--grid-points", "4"], None),
    ], ids=["split", "rhos", "rhos-repeated", "config-value",
            "config-no-section", "nc-episodes", "nc-patience", "nc-val-interval", "nc-layers",
            "nc-hidden", "grid-points", "grid-points-even"])
    def test_malformed_input_one_line_error(self, graph_dir, tmp_path, capsys,
                                            command, flags, config):
        argv = [command, "--graph", graph_dir, "--out", str(tmp_path / "o"),
                *flags]
        if config is not None:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_edge_file_with_extra_column(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        graphcore.save_graph(graphcore.build_graph(
            3, [], np.zeros((3, 1)), [0, 1, 2]), out)
        with open(os.path.join(out, "edges.csv"), "w") as fh:
            fh.write("src,dst,w\n0,1,2\n0,2,1\n")
        assert run_cli("fsnc", "--graph", out,
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: edges must have shape (E, 2)")
        assert "(2, 3)" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fsnc", "nc"])
    @pytest.mark.parametrize("name, text, says", [
        ("meta.json", '{"n": 3, "d0": 1}\n', "expected a JSON object"),
        ("meta.json", '{"n": 3,\n', "expected a JSON object"),
        ("meta.json", "[3, 1, 3]\n", "expected a JSON object"),
        ("meta.json", '{"n": 3, "d0": 1, "num_classes": 3.0}\n',
         "num_classes must be an integer, got 3.0"),
        ("meta.json", '{"n": 3.0, "d0": 1, "num_classes": 3}\n',
         "n must be an integer, got 3.0"),
        ("meta.json", '{"n": 3, "d0": 1, "num_classes": "3"}\n',
         "num_classes must be an integer, got '3'"),
        ("features.csv", "f0\n0\nx\n0\n", "could not convert string 'x'"),
        ("edges.csv", "src,dst\n0,1.5\n", "could not convert string '1.5'"),
    ], ids=["meta-no-classes", "meta-bad-json", "meta-list",
            "meta-float-classes", "meta-float-n", "meta-text-classes",
            "features-text", "edges-float"])
    def test_malformed_graph_file(self, tmp_path, capsys, command, name,
                                  text, says):
        out = str(tmp_path / "g")
        graphcore.save_graph(graphcore.build_graph(
            3, [(0, 1)], np.zeros((3, 1)), [0, 1, 2]), out)
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
        assert run_cli(command, "--graph", out,
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {os.path.join(out, name)}: ")
        assert says in err and err.count("\n") == 1

    def test_nc_error_names_the_setting_typed(self, graph_dir, tmp_path,
                                              capsys):
        # `nc` stores --episodes as NCConfig.steps
        assert run_cli("nc", "--graph", graph_dir, "--out",
                       str(tmp_path / "o"), "--episodes", "0") == 1
        assert capsys.readouterr().err == "error: episodes must be positive\n"

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_check_grads_needs_instances(self, capsys, instances):
        assert run_cli("check-grads", "--instances", instances) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --instances") and err.count("\n") == 1

    def test_checkpoint_width_must_match_classes(self, graph_dir, tmp_path,
                                                 capsys):
        def landscape(hidden, out):
            ckpt = write_checkpoint(str(tmp_path / f"h{hidden}-c{out}.ckpt"),
                                    out, hidden)
            return run_cli("landscape", "--graph", graph_dir,
                           "--out", str(tmp_path / "land"),
                           "--grid-points", "3", "--checkpoint", ckpt)

        # an FSNC-shaped model: output width = hidden, not the 8 classes
        assert landscape(16, 16) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "output width 16" in err and "8 classes" in err
        assert landscape(16, 8) == 0


class TestReadme:
    def test_every_cli_example_parses(self):
        # a flag that the docs name but the command rejects fails here
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as fh:
            blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        examples = [shlex.split(line, comments=True) for line in lines
                    if line.strip().startswith("fgsam ")]
        assert len(examples) >= 10
        parser = cli.build_parser()
        for argv in examples:
            parser.parse_args(argv[1:])
