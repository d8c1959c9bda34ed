"""Command-line driver: graph generation, training, analysis, benchmarks.

Configuration comes from an INI-style file of key=value lines under
section headers; command-line flags override file values. Each command
takes the flags of exactly the settings it reads.
"""

import argparse
import configparser
import csv
import json
import os
import re
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import analysis, fsnc, gradcheck
from . import model as mdl
from . import optim
from .graphcore import (SCHEMES, CsbmParams, GraphError, generate_csbm,
                        load_graph, normalize, save_graph)
from .model import ModelError
from .optim import Hyperparams, OptimError
from .seeding import stream_rng

# One row per setting, in config-echo order: INI section, INI key, the
# name the setting has everywhere else (argparse destination, config
# field), its type and its flag (None: INI only). A command takes the flags
# of exactly the settings it reads (`_COMMANDS`), so adding a setting is a
# row here plus its name in the commands that read it.
_SETTINGS = (
    ("run", "seed", "seed", int, "--seed"),
    ("run", "out", "out", str, "--out"),
    ("graph", "path", "graph", str, "--graph"),
    ("csbm", "classes", "csbm_classes", int, "--k"),
    ("csbm", "nodes_per_class", "nodes_per_class", int, "--nodes-per-class"),
    ("csbm", "p", "p", float, "--p"),
    ("csbm", "q", "q", float, "--q"),
    ("csbm", "dist", "dist", float, "--dist"),
    ("csbm", "dim", "dim", int, "--dim"),
    ("protocol", "way", "way", int, "--way"),
    ("protocol", "shot", "shot", int, "--shot"),
    ("protocol", "query", "query", int, "--query"),
    ("protocol", "episodes", "episodes", int, "--episodes"),
    ("protocol", "patience", "patience", int, "--patience"),
    ("protocol", "val_interval", "val_interval", int, "--val-interval"),
    ("protocol", "val_tasks", "val_tasks", int, "--val-tasks"),
    ("protocol", "test_tasks", "test_tasks", int, "--test-tasks"),
    ("protocol", "repeats", "repeats", int, "--repeats"),
    ("protocol", "layers", "layers", int, "--layers"),
    ("protocol", "hidden", "hidden", int, "--hidden"),
    ("protocol", "scheme", "scheme", str, "--scheme"),
    ("protocol", "optimizer", "optimizer", str, "--optimizer"),
    ("protocol", "split", "split_ratio", str, "--split"),
    ("optim", "lr", "lr", float, "--lr"),
    ("optim", "rho", "rho", float, "--rho"),
    ("optim", "rhos", "rhos", str, "--rhos"),
    ("optim", "lambda", "lambda_topo", float, "--lambda"),
    ("optim", "alpha", "alpha", float, "--alpha"),
    ("optim", "k", "k", int, "--k"),
    ("optim", "beta1", "beta1", float, None),
    ("optim", "beta2", "beta2", float, None),
    ("optim", "eps", "eps", float, None),
    ("optim", "weight_decay", "weight_decay", float, "--weight-decay"),
    ("landscape", "checkpoint", "checkpoint", str, "--checkpoint"),
    ("landscape", "grid_points", "grid_points", int, "--grid-points"),
    ("landscape", "grid_range", "grid_range", float, "--grid-range"),
    ("landscape", "slice_dims", "slice_dims", int, "--slice-dims"),
    ("gradcheck", "instances", "instances", int, "--instances"),
)
_NAMES = {(section, key): name for section, key, name, _, _ in _SETTINGS}
_TYPES = {name: cast for _, _, name, cast, _ in _SETTINGS}
# what a flag takes besides its type
_FLAG_OPTIONS = {
    "graph": {"help": "graph directory"},
    "csbm_classes": {"help": "number of classes"},
    "scheme": {"choices": SCHEMES},
    "optimizer": {"choices": optim.OPTIMIZER_NAMES},
    "split_ratio": {"help": "class split TRAIN/VAL/NOVEL"},
    "slice_dims": {"choices": (1, 2)},
}


class CliError(ValueError):
    pass


def _load_config(path: str, command: str) -> dict:
    """Setting name -> text of every key in the config file at `path`,
    each of which `command` must read."""
    parser = configparser.ConfigParser()
    flat = {}
    try:
        if not parser.read(path):
            raise CliError(f"cannot read config {path}")
        for section in parser.sections():
            if not any(row[0] == section for row in _SETTINGS):
                raise CliError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if (section, key) not in _NAMES:
                    raise CliError(
                        f"unknown key {key!r} in section [{section}]")
                name = _NAMES[section, key]
                if name not in _COMMANDS[command][2]:
                    raise CliError(f"config key {key!r} in section "
                                   f"[{section}] is not read by {command}")
                flat[name] = value
    except configparser.Error as exc:
        one_line = " ".join(str(exc).split())  # its messages span lines
        raise CliError(f"config {path}: {one_line}") from None
    return flat


def _cast(cast, text, what):
    try:
        return cast(text)
    except ValueError:
        raise CliError(
            f"{what}: {text!r} is not a valid {cast.__name__}") from None


def _settings(args):
    """`get(name, default)`: the setting's flag if given, else its config
    value cast to the setting's type, else `default`. `args.settings`
    records, by name, every value other than None that `get` returned; the
    config echo and the tables' meta are written from it. Every command
    reads `seed`, which is checked here, before any work."""
    cfg = _load_config(args.config, args.command) if args.config else {}
    args.settings = {}

    def get(name, default=None):
        value = getattr(args, name, None)
        if value is None:
            value = (_cast(_TYPES[name], cfg[name], f"config value {name}")
                     if name in cfg else default)
        if value is not None:
            args.settings[name] = value
        return value

    seed = get("seed")
    if seed is not None and seed < 0:
        raise CliError(f"seed must be non-negative, got {seed}")
    return get


def _config(cls, get, command, **given):
    """A `cls` whose fields that `command` reads are read through `get`,
    defaulting to the field's own default, whose `given` fields are passed
    as they are and whose other fields keep their defaults."""
    reads = _COMMANDS[command][2]
    return cls(**given, **{f.name: get(f.name, f.default) for f in fields(cls)
                           if f.name in reads and f.name not in given})


def _echo_ini(settings: dict) -> None:
    """Write into the output directory a config echo that can be fed back
    through --config: every setting the command read but `out`, in table
    order."""
    parser = configparser.ConfigParser()
    for section, key, name, _, _ in _SETTINGS:
        if name in settings and name != "out":
            value = settings[name]
            if name == "split_ratio":
                value = "/".join(str(r) for r in _parse_split(value))
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, str(value))
    with open(os.path.join(settings["out"], "config_echo.ini"), "w") as fh:
        parser.write(fh)


def _write_csv(path: str, header, rows) -> None:
    """CSV with a one-line header; floats keep every digit (`.17g`)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_table(args, name, header, rows, **meta) -> None:
    """The table `name` in the output directory, with a sibling
    `.meta.json` of the command, its seed and `meta`."""
    out = args.settings["out"]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, name), header, rows)
    _write_json(os.path.join(out, name.rsplit(".", 1)[0] + ".meta.json"),
                {"command": args.command, "seed": args.settings["seed"],
                 **meta})


# the trace CSVs a report names: `trace.csv`, or `trace_r<i>.csv` per repeat
_TRACE_NAME = re.compile(r"trace(_r(0|[1-9][0-9]*))?\.csv")


def _write_report(report, outdir: str) -> None:
    """`report.json` of a `fsnc.TrainReport` or `fsnc.NCReport`: each
    record's config and scalar fields in declaration order, then its
    repeats or the name of the CSV its trace is written to (`trace_path`).
    A NaN field, the `best_val_acc` of a run without a validation round,
    is written as null, as JSON has no NaN. A trace CSV an earlier run left
    in `outdir` that this report does not name is deleted, so that every
    trace in the directory is this run's."""
    os.makedirs(outdir, exist_ok=True)
    written = set()

    def payload(record, trace_name):
        entry = {name: None if value != value else value
                 for name, value in vars(record).items()
                 if isinstance(value, (dict, float, int, str))}
        if isinstance(record, fsnc.TrainReport):
            entry["repeats"] = [payload(rep, f"trace_r{i}.csv")
                                for i, rep in enumerate(record.repeats)]
        else:
            _write_csv(os.path.join(outdir, trace_name), fsnc.TRACE_COLUMNS,
                       ([row[c] for c in fsnc.TRACE_COLUMNS]
                        for row in record.trace))
            written.add(trace_name)
            entry["trace_path"] = trace_name
        return entry

    _write_json(os.path.join(outdir, "report.json"),
                payload(report, "trace.csv"))
    for name in os.listdir(outdir):
        if _TRACE_NAME.fullmatch(name) and name not in written:
            os.remove(os.path.join(outdir, name))


def _parse_split(text: str):
    parts = [_cast(int, p, "split") for p in text.split("/")]
    if len(parts) != 3:
        raise CliError("split must look like TRAIN/VAL/NOVEL, e.g. 12/4/4")
    return tuple(parts)


def _out(get, required) -> str:
    """The output directory, checked by `run` before any work and not
    created: it, or its nearest existing ancestor, must be a directory."""
    out = get("out")
    if out is None and required:
        raise CliError("--out required")
    ancestor = out
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        raise CliError(f"--out {out}: {ancestor} is not a directory")
    return out


def _input_hash(graph) -> str:
    """The hash of everything a command reads of a graph."""
    return analysis.content_hash(graph.features, graph.edges, graph.labels)


def _steps(get, default) -> int:
    """The --episodes of the commands that take full-batch steps."""
    steps = get("episodes", default)
    if steps < 1:
        # not `steps`, the name NCConfig and run_bench give it
        raise CliError("episodes must be positive")
    return steps


def _episodic(args, get, graph, **given):
    """The episodic commands' protocol config, with its `given` fields, and
    their class split, as (config, TRAIN/VAL/NOVEL ratio, split). What a
    run builds before its clock starts, `fsnc.train_protocol` builds."""
    config = _config(fsnc.ProtocolConfig, get, args.command,
                     hp=_config(Hyperparams, get, args.command), **given)
    ratio = _parse_split(get("split_ratio", f"{graph.num_classes - 4}/2/2"))
    split = fsnc.split_classes(graph.num_classes, ratio, config.seed)
    return config, ratio, split


def _csbm(get, classes, nodes_per_class, p, q, dim) -> CsbmParams:
    """The CSBM of `gen-csbm` or `verify-theorem`, whose settings default
    to the given values."""
    return CsbmParams(K=get("csbm_classes", classes),
                      nodes_per_class=nodes_per_class, p=get("p", p),
                      q=get("q", q), D=get("dist", 2.0), l=get("dim", dim),
                      seed=get("seed", 0))


def cmd_gen_csbm(args, get, out, graph) -> int:
    nodes = get("nodes_per_class", 100)
    csbm = generate_csbm(_csbm(get, classes=2, nodes_per_class=nodes,
                               p=0.1, q=0.02, dim=8))
    save_graph(csbm, out)
    print(f"wrote CSBM graph: n={csbm.n} edges={csbm.num_edges} "
          f"classes={csbm.num_classes} -> {out}")
    return 0


def _write_cost_report(args, name, rows, **meta) -> None:
    """The rows of `analysis.cost_report`, columns in its key order."""
    _write_table(args, name, tuple(rows[0]),
                 [tuple(r.values()) for r in rows], **meta)


def _run_fsnc_arm(config, graph, split, outdir):
    report = fsnc.train_protocol(config, graph, split)
    _write_report(report, outdir)
    return report


def cmd_fsnc(args, get, out, graph) -> int:
    config, _, split = _episodic(args, get, graph)
    report = _run_fsnc_arm(config, graph, split, out)
    print(f"fsnc [{config.optimizer}] test acc "
          f"{report.test_acc_mean:.4f} +/- {report.test_acc_std:.4f} "
          f"(gnn evals {report.gnn_evals}, mlp evals {report.mlp_evals})")
    return 0


def cmd_compare(args, get, out, graph) -> int:
    names = optim.OPTIMIZER_NAMES
    # every arm runs, so the config's optimizer is a placeholder
    config, ratio, split = _episodic(args, get, graph, optimizer=names[0])
    reports = {name: _run_fsnc_arm(replace(config, optimizer=name), graph,
                                   split, os.path.join(out, name))
               for name in names}
    traces = {name: {"gnn_evals": rep.gnn_evals, "mlp_evals": rep.mlp_evals,
                     "wall_seconds": rep.wall_seconds}
              for name, rep in reports.items()}
    _write_cost_report(args, "cost_report.csv", analysis.cost_report(traces),
                       split=ratio, input_hash=_input_hash(graph))
    for name, rep in reports.items():
        print(f"{name:7s} test acc {rep.test_acc_mean:.4f} "
              f"gnn={rep.gnn_evals} mlp={rep.mlp_evals} "
              f"wall={rep.wall_seconds:.2f}s")
    return 0


NC_TRAIN_FRAC, NC_VAL_FRAC = 0.6, 0.2   # a class's shares of nc masks


def make_nc_masks(graph, seed):
    """Deterministic stratified train/val/test node masks."""
    rng = stream_rng(seed, "episodes")
    train, val, test = [], [], []
    for c in range(graph.num_classes):
        members = rng.permutation(np.flatnonzero(graph.labels == c))
        n_tr = max(1, int(NC_TRAIN_FRAC * members.size))
        n_val = max(1, int(NC_VAL_FRAC * members.size))
        train.append(members[:n_tr])
        val.append(members[n_tr:n_tr + n_val])
        test.append(members[n_tr + n_val:])
    return (np.sort(np.concatenate(train)), np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


def cmd_nc(args, get, out, graph) -> int:
    config = _config(fsnc.NCConfig, get, args.command,
                     steps=_steps(get, fsnc.NCConfig.steps),
                     hp=_config(Hyperparams, get, args.command))
    masks = make_nc_masks(graph, config.seed)
    report = fsnc.standard_nc_train(config, graph, masks)
    _write_report(report, out)
    dims = mdl.uniform_dims(graph.d0, config.hidden, graph.num_classes,
                            config.layers)
    mdl.save_checkpoint(os.path.join(out, "best.ckpt"),
                        mdl.ModelParams.from_flat(report.best_params, dims),
                        config.hidden)
    print(f"nc [{config.optimizer}] test acc {report.test_acc:.4f} "
          f"(stopped at step {report.stop_step})")
    return 0


def cmd_landscape(args, get, out, graph) -> int:
    points = get("grid_points", 41)
    if points < 3 or points % 2 == 0:
        # the grid is symmetric about the base point, so its count is odd
        raise CliError(f"--grid-points must be an odd number of at least "
                       f"3, got {points}")
    grid_range = get("grid_range", 1.0)
    if not 0 < grid_range < np.inf:
        raise CliError(f"--grid-range must be positive and finite, got "
                       f"{grid_range}")
    seed = get("seed", 0)
    slice_dims = get("slice_dims", 1)
    checkpoint = get("checkpoint")
    if checkpoint:
        if get("layers") is not None or get("hidden") is not None:
            raise CliError("--layers and --hidden cannot be given with "
                           "--checkpoint, which fixes both")
        params, _ = mdl.load_checkpoint(checkpoint)
        if params.dims[-1] != graph.num_classes:
            raise CliError(f"checkpoint {checkpoint} has output width "
                           f"{params.dims[-1]}, the graph has "
                           f"{graph.num_classes} classes")
    else:
        dims = mdl.uniform_dims(graph.d0, get("hidden", 16),
                                graph.num_classes, get("layers", 2))
        params = mdl.init_params(dims, stream_rng(seed, "init"))
    operator = normalize(graph, get("scheme", "gcn-sym"))
    spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                     graph.num_classes)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(-grid_range, grid_range, points)
    if not np.isfinite(grid).all():
        raise CliError(f"--grid-range {grid_range:g} is too large: the grid "
                       f"from -{grid_range:g} to {grid_range:g} is not finite")
    # linspace can put its middle point a rounding error away from 0
    grid[points // 2] = 0.0
    slc = analysis.landscape_slice(params, graph, operator, spec,
                                   slice_dims, grid,
                                   seed=int(stream_rng(seed, "directions")
                                            .integers(2 ** 31)))
    if slice_dims == 1:
        rows = [(float(a), float(l)) for a, l in zip(slc.alphas, slc.losses)]
        header = ("alpha", "loss")
    else:
        rows = [(float(a), float(b), float(slc.losses[i, j]))
                for i, a in enumerate(slc.alphas)
                for j, b in enumerate(slc.betas)]
        header = ("alpha", "beta", "loss")
    _write_table(args, "landscape.csv", header, rows,
                 base_loss=slc.base_loss, input_hash=_input_hash(graph))
    print(f"landscape slice written, base loss {slc.base_loss:.6f}")
    return 0


def cmd_drift(args, get, out, graph) -> int:
    config, _, split = _episodic(args, get, graph, optimizer="fgsam+",
                                 repeats=1, collect_bundles=True)
    report = fsnc.train_protocol(config, graph, split)
    drift = analysis.grad_drift(report.repeats[0].bundles)
    names = analysis.DRIFT_NAMES
    # per exact step, each gradient's raw drift, then its relative drift
    rows = [(i, *(float(drift[name][kind][i]) for name in names
                  for kind in ("raw", "relative")))
            for i in range(len(drift[names[0]]["raw"]))]
    header = ("exact_step", *(f"{name}_drift{suffix}" for name in names
                              for suffix in ("", "_rel")))
    _write_table(args, "drift.csv", header, rows,
                 input_hash=_input_hash(graph))
    for name in names:
        med = float(np.median(drift[name]["raw"]))
        print(f"median drift {name}: {med:.6g}")
    return 0


def cmd_rho_sweep(args, get, out, graph) -> int:
    # each curve runs one repeat at its own rho
    config, _, split = _episodic(args, get, graph, repeats=1)
    text = get("rhos", "0.01,0.05,0.1,0.5,1.0")
    rhos = [_cast(float, r, "--rhos") for r in text.split(",")]
    curves = analysis.rho_sweep(config, rhos, graph, split)
    rows = [(config.optimizer, rho, step, loss)
            for rho, losses in sorted(curves.items())
            for step, loss in enumerate(losses)]
    _write_table(args, "rho_sweep.csv", ("optimizer", "rho", "step", "loss"),
                 rows, input_hash=_input_hash(graph))
    print(f"rho sweep: {len(curves)} curves written")
    return 0


def cmd_verify_theorem(args, get, out, graph) -> int:
    report = analysis.verify_theorem(_csbm(get, classes=3, nodes_per_class=1,
                                           p=0.6, q=0.1, dim=4))
    print(f"max |w.b - w'.b'| = {report.max_offset_gap:.3e}")
    print(f"min cosine(w, w')  = {report.min_cosine:.15f}")
    return 0 if report.max_offset_gap <= 1e-9 else 1


def cmd_check_grads(args, get, out, graph) -> int:
    instances = get("instances", 50)
    if instances < 1:
        raise CliError(f"--instances must be positive, got {instances}")
    results = gradcheck.run_suite(instances=instances, seed=get("seed", 0))
    worst = max(results, key=lambda r: r.rel_err)
    print(f"{len(results)} instances checked; "
          f"max relative error {worst.rel_err:.3e} ({worst.description})")
    return 0 if worst.rel_err < 1e-4 else 1


def bench_instance(seed=0):
    """An MP-dominated instance: large sparse graph, wide input features."""
    return generate_csbm(CsbmParams(K=5, nodes_per_class=1000, p=0.03,
                                    q=0.0025, D=4.0, l=128, seed=seed))


def run_bench(graph, steps, hp_base, seed=0):
    operator = normalize(graph, "gcn-sym")
    operator.fill_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, 16, graph.num_classes, 2)
    spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                     graph.num_classes)
    w0 = mdl.init_params(dims, stream_rng(seed, "init")).flatten()
    traces = {}
    for name in optim.OPTIMIZER_NAMES:
        obj = optim.model_objective(dims, graph, operator, spec)
        start = time.perf_counter()
        # the trainers' loop with no validation round: `steps` steps
        fsnc.train_steps(optim.make_optimizer(name, hp_base), w0, steps,
                         lambda t: obj, None, steps + 1, 1, "step ")
        traces[name] = {"gnn_evals": obj.gnn_evals,
                        "mlp_evals": obj.mlp_evals,
                        "wall_seconds": time.perf_counter() - start}
    return traces


def cmd_bench(args, get, out, graph) -> int:
    seed = get("seed", 0)
    steps = _steps(get, 200)
    hp = _config(Hyperparams, get, args.command)
    graph = bench_instance(seed)
    deg = graph.degrees().mean()
    print(f"bench graph: n={graph.n} edges={graph.num_edges} "
          f"mean degree {deg:.1f}")
    traces = run_bench(graph, steps, hp, seed=seed)
    rows = analysis.cost_report(traces)
    for r in rows:
        print(f"{r['optimizer']:7s} gnn={r['gnn_evals']:4d} "
              f"mlp={r['mlp_evals']:4d} wall={r['wall_seconds']:.2f}s "
              f"ratio={r['wall_ratio_vs_adam']:.2f}")
    if out:
        _write_cost_report(args, "bench.csv", rows, steps=steps)
    return 0


_HP = ("lr", "rho", "lambda_topo", "alpha", "k", "beta1", "beta2", "eps",
       "weight_decay")
_MODEL = ("layers", "hidden", "scheme")
_CSBM = ("seed", "csbm_classes", "p", "q", "dist", "dim")
_TRAIN = ("seed", "out", "graph", "episodes", "patience", "val_interval",
          *_MODEL, *_HP)
_EPISODIC = (*_TRAIN, "way", "shot", "query", "val_tasks", "test_tasks",
             "split_ratio")
# Each command: its function, its help line and the settings it reads,
# whose flags are the flags it takes besides --config and whose keys are
# the keys its config file may hold and its config echo records.
# `compare` runs every optimizer, `drift` runs one repeat of fgsam+ and
# `rho-sweep` one repeat per rho of `rhos`, so none of them reads the
# settings it fixes.
_COMMANDS = {
    "gen-csbm": (cmd_gen_csbm, "generate a synthetic CSBM graph",
                 (*_CSBM, "out", "nodes_per_class")),
    "fsnc": (cmd_fsnc, "episodic few-shot training + meta-test",
             (*_EPISODIC, "repeats", "optimizer")),
    "compare": (cmd_compare, "paired runs of all optimizers",
                (*_EPISODIC, "repeats")),
    "nc": (cmd_nc, "standard node classification", (*_TRAIN, "optimizer")),
    "landscape": (cmd_landscape, "loss landscape slice",
                  ("seed", "out", "graph", *_MODEL, "checkpoint",
                   "grid_points", "grid_range", "slice_dims")),
    "drift": (cmd_drift, "gradient drift across exact steps", _EPISODIC),
    "rho-sweep": (cmd_rho_sweep, "training-loss curves over rho",
                  (*(name for name in _EPISODIC if name != "rho"),
                   "optimizer", "rhos")),
    "verify-theorem": (cmd_verify_theorem,
                       "optimal-classifier equality check", _CSBM),
    "check-grads": (cmd_check_grads, "finite-difference gradient suite",
                    ("seed", "instances")),
    "bench": (cmd_bench, "wall-time benchmark on an MP-dominated instance",
              ("seed", "out", "episodes", *_HP)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgsam",
        description="Sharpness-aware GNN optimizers with a PeerMLP fast "
                    "path: generation, training, analysis, benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, names) in _COMMANDS.items():
        # no abbreviations: `rho-sweep --rho` would otherwise set --rhos
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        p.add_argument("--config", type=str)
        for _, _, name, cast, flag in _SETTINGS:
            if flag and name in names:
                p.add_argument(flag, dest=name, type=cast,
                               **_FLAG_OPTIONS.get(name, {}))
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    """Parse `argv` and run its command after the one preamble, which,
    before any work, resolves the settings (the config file checked against
    the command, and the seed), the output directory if the command reads
    `out` (required but for `bench`) and the graph if it reads `graph`,
    each None where not read. An error is one `error:` line, exit code 1."""
    args = build_parser().parse_args(argv)
    reads = _COMMANDS[args.command][2]
    try:
        get = _settings(args)
        out = (_out(get, required=args.command != "bench")
               if "out" in reads else None)
        graph = None
        if "graph" in reads:
            path = get("graph")
            if path is None:
                raise CliError(
                    "no graph directory given (--graph or [graph] path)")
            graph = load_graph(path)
        code = args.func(args, get, out, graph)
        if code == 0 and out:
            _echo_ini(args.settings)
        return code
    except (CliError, GraphError, ModelError, OptimError, fsnc.FsncError,
            analysis.AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
