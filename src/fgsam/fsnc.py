"""Episodic few-shot machinery: class splits, N-way K-shot sampling, a
prototypical episode head, the training protocol with validation/patience,
meta-testing, and a standard node-classification trainer."""

import csv
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import model as mdl
from . import optim
from .graphcore import Graph, PropagationOperator, normalize
from .seeding import stream_rng


class FsncError(ValueError):
    pass


@dataclass
class ClassSplit:
    train_classes: np.ndarray
    val_classes: np.ndarray
    novel_classes: np.ndarray


def split_classes(num_classes: int, ratio, seed: int) -> ClassSplit:
    n_tr, n_val, n_novel = ratio
    if min(ratio) < 0:
        raise FsncError(f"ratio {ratio} has a negative class count")
    if n_tr + n_val + n_novel != num_classes:
        raise FsncError(f"ratio {ratio} does not sum to {num_classes}")
    perm = np.random.default_rng(seed).permutation(num_classes)
    return ClassSplit(train_classes=np.sort(perm[:n_tr]),
                      val_classes=np.sort(perm[n_tr:n_tr + n_val]),
                      novel_classes=np.sort(perm[n_tr + n_val:]))


@dataclass
class Episode:
    way: int
    shot: int
    query_per_class: int
    classes: np.ndarray        # global class id per local label
    support_idx: np.ndarray    # class-major, way*shot entries
    query_idx: np.ndarray      # class-major, way*query entries

    @property
    def support_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.way), self.shot)

    @property
    def query_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.way), self.query_per_class)


def sample_episode(graph: Graph, classes, way: int, shot: int, query: int,
                   seed=None, rng=None) -> Episode:
    if rng is None:
        rng = np.random.default_rng(seed)
    classes = np.asarray(classes)
    if classes.size < way:
        raise FsncError(f"need {way} classes, only {classes.size} available")
    chosen = rng.choice(classes, size=way, replace=False)
    support, query_idx = [], []
    for c in chosen:
        pool = np.flatnonzero(graph.labels == c)
        if pool.size < shot + query:
            raise FsncError(
                f"class {c} has {pool.size} nodes, needs {shot + query}")
        picked = rng.choice(pool, size=shot + query, replace=False)
        support.append(picked[:shot])
        query_idx.append(picked[shot:])
    return Episode(way=way, shot=shot, query_per_class=query, classes=chosen,
                   support_idx=np.concatenate(support),
                   query_idx=np.concatenate(query_idx))


def proto_head(emb: np.ndarray, episode: Episode, compute_grad: bool = True):
    """Prototypical head on the node embeddings `emb` (n x d): class
    prototypes are mean support embeddings, query logits are negative
    squared distances. Returns (cross-entropy, accuracy, gradient of the
    cross-entropy w.r.t. `emb` or None)."""
    way, shot = episode.way, episode.shot
    zs = emb[episode.support_idx]
    zq = emb[episode.query_idx]
    protos = zs.reshape(way, shot, -1).mean(axis=1)
    diff = zq[:, None, :] - protos[None, :, :]
    logits = -(diff * diff).sum(axis=2)
    labels = episode.query_labels
    m = labels.size
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax.ravel() + np.log(np.exp(logits - zmax).sum(axis=1))
    value = float(np.mean(lse - logits[np.arange(m), labels]))
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    if not compute_grad:
        return value, acc, None
    probs = mdl.softmax_rows(logits)
    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dd2 = -dlogits                                 # logits = -d^2
    dzq = 2.0 * (dd2[:, :, None] * diff).sum(axis=1)
    dprot = -2.0 * (dd2[:, :, None] * diff).sum(axis=0)
    dzs = np.repeat(dprot / shot, shot, axis=0)
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, episode.query_idx, dzq)
    np.add.at(d_emb, episode.support_idx, dzs)
    return value, acc, d_emb


def proto_episode(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, episode: Episode,
                  weight_decay: float = 0.0, compute_grad: bool = True):
    """Forward pass plus the prototypical head, with weight decay. Returns
    (loss, accuracy, flat gradient or None)."""
    acts = mdl.forward(params, graph, operator)
    value, acc, d_emb = proto_head(acts.logits, episode, compute_grad)
    flat = params.flatten()
    if weight_decay:
        value += weight_decay * float(flat @ flat)
    if not compute_grad:
        return value, acc, None
    grad = mdl.backward_from_output(params, operator, acts, d_emb)
    if weight_decay:
        grad += 2.0 * weight_decay * flat
    return value, acc, grad


def task_accuracy(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, classes, way: int, shot: int,
                  query: int, tasks: int, rng):
    """Mean and standard deviation of the accuracy over `tasks` episodes
    drawn from `rng`. The weights are the same for every task, so one
    forward serves them all."""
    emb = mdl.forward(params, graph, operator).logits
    accs = []
    for _ in range(tasks):
        episode = sample_episode(graph, classes, way, shot, query, rng=rng)
        accs.append(proto_head(emb, episode, compute_grad=False)[1])
    return float(np.mean(accs)), float(np.std(accs))


def episode_objective(dims, graph: Graph, operator: PropagationOperator,
                      episode: Episode, weight_decay: float = 0.0) -> optim.Objective:
    identity = PropagationOperator("identity", None)

    def make(op):
        def fn(w):
            params = mdl.ModelParams.from_flat(w, dims)
            value, _, grad = proto_episode(params, graph, op, episode,
                                           weight_decay=weight_decay)
            return value, grad
        return fn

    return optim.Objective(make(operator), make(identity))


@dataclass
class ProtocolConfig:
    way: int = 2
    shot: int = 3
    query: int = 10
    repeats: int = 5
    episodes: int = 200
    patience: int = 10
    val_interval: int = 10
    val_tasks: int = 20
    test_tasks: int = 100
    layers: int = 2
    hidden: int = 16
    scheme: str = "gcn-sym"
    optimizer: str = "adam"
    hp: optim.Hyperparams = field(default_factory=optim.Hyperparams)
    seed: int = 0
    collect_bundles: bool = False

    def __post_init__(self):
        for name in ("way", "shot", "query", "repeats", "episodes", "patience",
                     "val_interval", "val_tasks", "test_tasks", "layers",
                     "hidden"):
            if getattr(self, name) < 1:
                raise FsncError(f"{name} must be positive")


@dataclass
class RepeatResult:
    seed: int
    stop_episode: int
    best_val_acc: float
    test_acc_mean: float
    test_acc_std: float
    trace: list = field(default_factory=list)
    bundles: list = field(default_factory=list)
    final_params: np.ndarray = None
    best_params: np.ndarray = None


@dataclass
class TrainReport:
    config: dict
    repeats: list
    test_acc_mean: float
    test_acc_std: float
    gnn_evals: int
    mlp_evals: int
    wall_seconds: float


def _mean_task_accuracy(w, dims, graph, operator, classes, cfg, count, rng):
    params = mdl.ModelParams.from_flat(w, dims)
    return task_accuracy(params, graph, operator, classes, cfg.way, cfg.shot,
                         cfg.query, count, rng)


def _check_finite(loss: float, where: str) -> None:
    """Stop the run at the first non-finite training loss."""
    if not np.isfinite(loss):
        raise FsncError(f"non-finite loss {loss} at {where}")


def train_protocol(config: ProtocolConfig, graph: Graph,
                   split: ClassSplit) -> TrainReport:
    t0 = time.perf_counter()
    operator = normalize(graph, config.scheme)
    # fill the A.X memo here, not inside the first timed step
    operator.propagate_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, config.hidden, config.hidden,
                            config.layers)
    results = []
    total_gnn = total_mlp = 0
    for r in range(config.repeats):
        root = config.seed + r
        w = mdl.init_params(dims, stream_rng(root, "init")).flatten()
        ep_rng = stream_rng(root, "episodes")
        val_rng = stream_rng(root, "val")
        test_rng = stream_rng(root, "test")
        opt = optim.make_optimizer(config.optimizer, config.hp)
        gnn_cum = mlp_cum = 0
        best_val, best_w, bad_vals = -1.0, None, 0
        trace, bundles = [], []
        stop_episode = config.episodes
        for t in range(config.episodes):
            episode = sample_episode(graph, split.train_classes, config.way,
                                     config.shot, config.query, rng=ep_rng)
            obj = episode_objective(dims, graph, operator, episode,
                                    weight_decay=config.hp.weight_decay)
            step_start = time.perf_counter()
            w, rec = opt.step(obj, w)
            wall_ms = (time.perf_counter() - step_start) * 1e3
            _check_finite(rec.loss, f"repeat {r} episode {t}")
            gnn_cum += obj.gnn_evals
            mlp_cum += obj.mlp_evals
            trace.append({"step": t, "loss": rec.loss,
                          "grad_norm": rec.grad_norm, "gv_norm": rec.gv_norm,
                          "gG_norm": rec.gG_norm, "branch": rec.branch,
                          "gnn_evals_cum": gnn_cum, "mlp_evals_cum": mlp_cum,
                          "wall_ms": wall_ms})
            if config.collect_bundles and rec.bundle is not None:
                bundles.append(rec.bundle)
            if (t + 1) % config.val_interval == 0:
                val_acc, _ = _mean_task_accuracy(
                    w, dims, graph, operator, split.val_classes, config,
                    config.val_tasks, val_rng)
                if val_acc > best_val:
                    best_val, best_w, bad_vals = val_acc, w.copy(), 0
                else:
                    bad_vals += 1
                if bad_vals == config.patience:
                    stop_episode = t + 1
                    break
        eval_w = best_w if best_w is not None else w
        test_mean, test_std = _mean_task_accuracy(
            eval_w, dims, graph, operator, split.novel_classes, config,
            config.test_tasks, test_rng)
        total_gnn += gnn_cum
        total_mlp += mlp_cum
        results.append(RepeatResult(
            seed=root, stop_episode=stop_episode,
            best_val_acc=best_val if best_val >= 0 else float("nan"),
            test_acc_mean=test_mean, test_acc_std=test_std, trace=trace,
            bundles=bundles, final_params=w, best_params=eval_w))
    repeat_means = [r.test_acc_mean for r in results]
    return TrainReport(
        config=_config_dict(config), repeats=results,
        test_acc_mean=float(np.mean(repeat_means)),
        test_acc_std=float(np.std(repeat_means)),
        gnn_evals=total_gnn, mlp_evals=total_mlp,
        wall_seconds=time.perf_counter() - t0)


def meta_test(params: mdl.ModelParams, graph: Graph,
              operator: PropagationOperator, novel_classes, way, shot, query,
              tasks, seed):
    """Evaluate `tasks` fresh episodes; message passing must be on."""
    if operator.is_identity:
        raise FsncError("meta-test requires message passing enabled")
    return task_accuracy(params, graph, operator, novel_classes, way, shot,
                         query, tasks, np.random.default_rng(seed))


@dataclass
class NCConfig:
    steps: int = 200
    patience: int = 10
    val_interval: int = 10
    layers: int = 2
    hidden: int = 16
    scheme: str = "gcn-sym"
    optimizer: str = "adam"
    hp: optim.Hyperparams = field(default_factory=optim.Hyperparams)
    seed: int = 0


@dataclass
class NCReport:
    config: dict
    stop_step: int
    best_val_acc: float
    test_acc: float
    trace: list
    gnn_evals: int
    mlp_evals: int
    wall_seconds: float
    final_params: np.ndarray = None


def _mask_accuracy(w, dims, graph, operator, idx):
    params = mdl.ModelParams.from_flat(w, dims)
    acts = mdl.forward(params, graph, operator)
    pred = np.argmax(acts.logits[idx], axis=1)
    return float(np.mean(pred == graph.labels[idx]))


def standard_nc_train(config: NCConfig, graph: Graph, masks) -> NCReport:
    """Full-batch supervised training on the train mask with early stopping
    on the validation mask; reports accuracy on the test mask."""
    t0 = time.perf_counter()
    train_idx, val_idx, test_idx = (np.asarray(m, dtype=np.int64) for m in masks)
    combined = np.concatenate([train_idx, val_idx, test_idx])
    if np.unique(combined).size != combined.size:
        raise FsncError("train/val/test masks overlap")
    operator = normalize(graph, config.scheme)
    # fill the A.X memo here, not inside the first timed step
    operator.propagate_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, config.hidden, graph.num_classes,
                            config.layers)
    spec = mdl.loss_spec_from_labels(train_idx, graph.labels,
                                     graph.num_classes,
                                     weight_decay=config.hp.weight_decay)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, stream_rng(config.seed, "init")).flatten()
    opt = optim.make_optimizer(config.optimizer, config.hp)
    best_val, best_w, bad_vals = -1.0, None, 0
    trace = []
    stop_step = config.steps
    for t in range(config.steps):
        step_start = time.perf_counter()
        w, rec = opt.step(obj, w)
        wall_ms = (time.perf_counter() - step_start) * 1e3
        _check_finite(rec.loss, f"step {t}")
        trace.append({"step": t, "loss": rec.loss, "grad_norm": rec.grad_norm,
                      "gv_norm": rec.gv_norm, "gG_norm": rec.gG_norm,
                      "branch": rec.branch, "gnn_evals_cum": obj.gnn_evals,
                      "mlp_evals_cum": obj.mlp_evals, "wall_ms": wall_ms})
        if (t + 1) % config.val_interval == 0:
            val_acc = _mask_accuracy(w, dims, graph, operator, val_idx)
            if val_acc > best_val:
                best_val, best_w, bad_vals = val_acc, w.copy(), 0
            else:
                bad_vals += 1
            if bad_vals == config.patience:
                stop_step = t + 1
                break
    eval_w = best_w if best_w is not None else w
    test_acc = _mask_accuracy(eval_w, dims, graph, operator, test_idx)
    return NCReport(config=_config_dict(config), stop_step=stop_step,
                    best_val_acc=best_val if best_val >= 0 else float("nan"),
                    test_acc=test_acc, trace=trace, gnn_evals=obj.gnn_evals,
                    mlp_evals=obj.mlp_evals,
                    wall_seconds=time.perf_counter() - t0,
                    final_params=eval_w)


def _config_dict(config) -> dict:
    d = asdict(config)
    return d


TRACE_COLUMNS = ("step", "loss", "grad_norm", "gv_norm", "gG_norm", "branch",
                 "gnn_evals_cum", "mlp_evals_cum", "wall_ms")


def write_trace_csv(path: str, trace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow([_fmt(row[c]) for c in TRACE_COLUMNS])


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_train_report(report: TrainReport, outdir: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    payload = {
        "config": report.config,
        "test_acc_mean": report.test_acc_mean,
        "test_acc_std": report.test_acc_std,
        "gnn_evals": report.gnn_evals,
        "mlp_evals": report.mlp_evals,
        "wall_seconds": report.wall_seconds,
        "repeats": [],
    }
    for i, rep in enumerate(report.repeats):
        trace_path = os.path.join(outdir, f"trace_r{i}.csv")
        write_trace_csv(trace_path, rep.trace)
        payload["repeats"].append({
            "seed": rep.seed,
            "stop_episode": rep.stop_episode,
            "best_val_acc": rep.best_val_acc,
            "test_acc_mean": rep.test_acc_mean,
            "test_acc_std": rep.test_acc_std,
            "trace_path": os.path.basename(trace_path),
        })
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def write_nc_report(report: NCReport, outdir: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(outdir, "trace.csv")
    write_trace_csv(trace_path, report.trace)
    payload = {
        "config": report.config,
        "stop_step": report.stop_step,
        "best_val_acc": report.best_val_acc,
        "test_acc": report.test_acc,
        "gnn_evals": report.gnn_evals,
        "mlp_evals": report.mlp_evals,
        "wall_seconds": report.wall_seconds,
        "trace_path": os.path.basename(trace_path),
    }
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
