"""Episodic few-shot machinery: class splits, N-way K-shot sampling, a
prototypical episode head, the training protocol with validation/patience,
meta-testing, and a standard node-classification trainer."""

import functools
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


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task, or a round of them (`draw_round`). Frozen, so
    that `query_labels`, `label_index` and `rows`, computed on first use
    and read-only, stay those of its fields."""

    way: int
    shot: int
    query_per_class: int
    classes: np.ndarray        # global class id per local label
    support_idx: np.ndarray    # class-major, way*shot entries
    query_idx: np.ndarray      # class-major, way*query entries

    @functools.cached_property
    def query_labels(self) -> np.ndarray:
        return _read_only(np.repeat(np.arange(self.way), self.query_per_class))

    @functools.cached_property
    def label_index(self) -> np.ndarray:
        """The flat index of each query's true-class logit in a C-ordered
        (query, way) logit array: `arange(m) * way + query_labels`."""
        labels = self.query_labels
        return _read_only(np.arange(labels.size) * self.way + labels)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The episode's nodes, support then query: the rows its loss
        reads, in the order `proto_head` takes their embeddings."""
        return _read_only(np.hstack([self.support_idx, self.query_idx]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def draw_round(graph: Graph, classes, way: int, shot: int, query: int,
               tasks: int, rng: np.random.Generator) -> Episode:
    """`tasks` tasks drawn one after another from `rng`, as one episode
    whose arrays have a leading task axis (row t of `rows`: task t's)."""
    classes = np.asarray(classes)
    if classes.size < way:
        raise FsncError(f"need {way} classes, only {classes.size} available")
    pools = graph.class_nodes
    chosen = np.empty((tasks, way), dtype=classes.dtype)
    picked = np.empty((tasks, way, shot + query), dtype=np.int64)
    for t in range(tasks):
        chosen[t] = rng.choice(classes, size=way, replace=False)
        for c, slot in zip(chosen[t], picked[t]):
            pool = pools[c] if 0 <= c < len(pools) else pools[:0]
            if len(pool) < shot + query:
                raise FsncError(
                    f"class {c} has {len(pool)} nodes, needs {shot + query}")
            slot[:] = rng.choice(pool, size=shot + query, replace=False)
    return Episode(way=way, shot=shot, query_per_class=query, classes=chosen,
                   support_idx=picked[:, :, :shot].reshape(tasks, -1),
                   query_idx=picked[:, :, shot:].reshape(tasks, -1))


def sample_episode(graph: Graph, classes, way: int, shot: int, query: int,
                   rng: np.random.Generator) -> Episode:
    """One task: the one-task case of `draw_round`."""
    task = draw_round(graph, classes, way, shot, query, 1, rng)
    return Episode(way, shot, query, task.classes[0], task.support_idx[0],
                   task.query_idx[0])


def proto_head(emb: np.ndarray, episode: Episode, compute_grad: bool = True):
    """Prototypical head on the embeddings `emb` of the episode's rows
    (`episode.rows`: support then query): class prototypes are mean support
    embeddings, query logits are negative squared distances. Returns
    (cross-entropy, gradient of the cross-entropy w.r.t. `emb` or None):
    the head contract of `model.head_loss`, with the episode as target.
    `task_accuracy` scores episodes.

    Per-call overhead dominates at episode sizes, so each step is one ufunc
    call where numpy's wrappers would make several, with the same floats:
    a mean is its sum divided by the count, and `x / -m` is `-(x / m)`.
    `tests/proto_head_oracle.py` is the plain head this one matches bit for
    bit."""
    way, shot = episode.way, episode.shot
    ns = way * shot
    zs, zq = emb[:ns], emb[ns:]
    protos = np.add.reduce(zs.reshape(way, shot, -1), axis=1)
    protos /= shot
    diff = zq[:, None, :] - protos
    logits = np.add.reduce(diff * diff, axis=2)
    np.negative(logits, out=logits)
    m = logits.shape[0]
    picked = logits.ravel()[episode.label_index]
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    e = logits - zmax
    np.exp(e, out=e)
    sums = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(sums.ravel())
    lse += zmax.ravel()
    lse -= picked
    value = float(np.add.reduce(lse) / m)
    if not compute_grad:
        return value, None
    e /= sums                      # the softmax of the logits
    e.ravel()[episode.label_index] -= 1.0
    e /= -m                        # d(loss)/d(d^2), as logits = -d^2
    diff *= e[:, :, None]
    grad = np.empty(emb.shape)
    np.multiply(np.add.reduce(diff, axis=1), 2.0, out=grad[ns:])
    dprot = np.add.reduce(diff, axis=0)
    dprot *= -2.0
    dprot /= shot
    grad[:ns].reshape(way, shot, -1)[:] = dprot[:, None, :]
    return value, grad


def proto_episode(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, episode: Episode,
                  weight_decay: float = 0.0, compute_grad: bool = True,
                  blocks=None):
    """(loss, flat gradient or None) of the prototypical head on the
    episode's rows, with weight decay: a forward plus one
    `model.head_loss` with `proto_head`. `blocks` restrict the forward to
    the episode's receptive field (`model.receptive_field` of
    `episode.rows`), whose logits are those rows; None runs it on all n
    rows."""
    acts = mdl.forward(params, graph, operator, blocks)
    return mdl.head_loss(params, operator, acts, proto_head, episode,
                         episode.rows if blocks is None else None,
                         weight_decay, blocks, compute_grad)


def task_accuracy(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, tasks: Episode, blocks):
    """Mean and standard deviation of the accuracy over the tasks of an
    evaluation round (`draw_round`). One forward over the union of the
    tasks' rows serves them all, and one batched head makes `proto_head`'s
    reductions, in its order, for every task. `blocks` are
    `model.blocks_for` of that union; None runs the forward on all n rows."""
    emb = mdl.forward(params, graph, operator, blocks).logits
    rows = tasks.rows
    if blocks is not None:     # the union's last-layer rows are sorted
        rows = np.searchsorted(blocks[-1].rows, rows)
    emb = emb[rows]
    ns = tasks.way * tasks.shot
    protos = emb[:, :ns].reshape(len(rows), tasks.way, tasks.shot,
                                 -1).mean(axis=2)
    diff = emb[:, ns:, None, :] - protos[:, None, :, :]
    nearest = np.argmin((diff * diff).sum(axis=3), axis=2)
    accs = np.mean(nearest == tasks.query_labels, axis=1)
    return float(np.mean(accs)), float(np.std(accs))


def episode_objective(dims, graph: Graph, operator: PropagationOperator,
                      episode: Episode, weight_decay: float = 0.0, *,
                      blocks) -> optim.Objective:
    """The episode's GNN / PeerMLP objective pair: each gradient is one
    `proto_episode`. `blocks` are the GNN operator's `model.blocks_for` of
    `episode.rows`; None runs its forward on all n rows. The PeerMLP's
    blocks are cut on its first gradient evaluation and reused by the later
    ones."""
    cut = {id(operator): blocks}

    def loss_grad(params, op):
        if id(op) not in cut:          # the PeerMLP's identity operator
            cut[id(op)] = mdl.blocks_for(op, episode.rows, params.num_layers)
        return proto_episode(params, graph, op, episode,
                             weight_decay=weight_decay, blocks=cut[id(op)])

    return optim.peer_objective(dims, operator, loss_grad)


def _require_positive(config, names) -> None:
    for name in names:
        if getattr(config, name) < 1:
            raise FsncError(f"{name} must be positive")


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
        _require_positive(self, ("way", "shot", "query", "repeats", "episodes",
                                 "patience", "val_interval", "val_tasks",
                                 "test_tasks", "layers", "hidden"))


@dataclass
class RepeatResult:
    seed: int
    stop_episode: int
    best_val_acc: float
    test_acc_mean: float
    test_acc_std: float
    trace: list = field(default_factory=list)
    bundles: list = field(default_factory=list)
    best_params: np.ndarray = None


@dataclass
class TrainReport:
    config: dict
    test_acc_mean: float
    test_acc_std: float
    gnn_evals: int
    mlp_evals: int
    wall_seconds: float
    repeats: list


# the keys of a trace row, in the order a trace CSV writes them
TRACE_COLUMNS = ("step", "loss", "grad_norm", "gv_norm", "gG_norm", "branch",
                 "gnn_evals_cum", "mlp_evals_cum", "wall_ms")


def train_steps(opt, w, steps, objective_at, val_acc, val_interval,
                patience, where, collect_bundles=False):
    """The step / trace / early-stopping loop of every trainer.

    `objective_at(t)` builds step t's objective before the timed region,
    `val_acc(w)` scores a validation round and `where` prefixes the step
    index in the non-finite-loss error. The evaluation counts are per-step
    deltas, so an objective may serve one step or the whole run. Returns
    (best_w, best_val, stop, trace, bundles); without a validation round
    best_w is the final w and best_val is NaN: a `val_interval` past
    `steps` runs the steps alone, and `val_acc` is never called."""
    best_val, best_w, bad_vals = -1.0, None, 0
    gnn_cum = mlp_cum = 0
    trace, bundles = [], []
    stop = steps
    for t in range(steps):
        obj = objective_at(t)
        gnn_before, mlp_before = obj.gnn_evals, obj.mlp_evals
        step_start = time.perf_counter()
        w, rec = opt.step(obj, w)
        wall_ms = (time.perf_counter() - step_start) * 1e3
        if not np.isfinite(rec.loss):
            raise FsncError(f"non-finite loss {rec.loss} at {where}{t}")
        gnn_cum += obj.gnn_evals - gnn_before
        mlp_cum += obj.mlp_evals - mlp_before
        trace.append({"step": t, "loss": rec.loss, "grad_norm": rec.grad_norm,
                      "gv_norm": rec.gv_norm, "gG_norm": rec.gG_norm,
                      "branch": rec.branch, "gnn_evals_cum": gnn_cum,
                      "mlp_evals_cum": mlp_cum, "wall_ms": wall_ms})
        if collect_bundles and rec.bundle is not None:
            bundles.append(rec.bundle)
        if (t + 1) % val_interval == 0:
            acc = val_acc(w)
            if acc > best_val:
                best_val, best_w, bad_vals = acc, w.copy(), 0
            else:
                bad_vals += 1
            if bad_vals == patience:
                stop = t + 1
                break
    if best_w is None:
        return w, float("nan"), stop, trace, bundles
    return best_w, best_val, stop, trace, bundles


def _plan(config: ProtocolConfig, graph: Graph, split: ClassSplit,
          operator: PropagationOperator, root: int):
    """A repeat's tasks, drawn up front, and the layer-0 rows they read
    filled before its first step.

    The episode of every step, every validation round and the test round
    are drawn from the repeat's `episodes`, `val` and `test` streams, which
    gives the same draws as drawing each task when it is used. If any
    episode or round union takes the full-graph path (not
    `model.worth_slicing`), the whole A.X is filled. Otherwise the layer-0
    rows of the receptive field of all their rows are, which is the union
    of each task's layer-0 rows (rows an earlier repeat filled are not
    filled again). No blocks are kept: a task's are cut when it is used.
    Early stopping leaves a superset filled. Returns (episodes, validation
    rounds, test round), each round one `draw_round`."""
    sizes = (config.way, config.shot, config.query)
    ep_rng, val_rng = stream_rng(root, "episodes"), stream_rng(root, "val")
    episodes = [sample_episode(graph, split.train_classes, *sizes, ep_rng)
                for _ in range(config.episodes)]
    rounds = [draw_round(graph, split.val_classes, *sizes, config.val_tasks,
                         val_rng)
              for _ in range(config.episodes // config.val_interval)]
    test_round = draw_round(graph, split.novel_classes, *sizes,
                            config.test_tasks, stream_rng(root, "test"))
    reads = [e.rows for e in episodes] + [
        np.unique(r.rows) for r in rounds + [test_round]]
    if all(mdl.worth_slicing(operator, rows, config.layers)
           for rows in reads):
        union = np.unique(np.concatenate(reads))
        blocks = mdl.receptive_field(operator, union, config.layers)
        operator.propagate_input(graph.features, blocks[0].rows)
    else:
        operator.propagate_input(graph.features)
    return episodes, rounds, test_round


def train_protocol(config: ProtocolConfig, graph: Graph,
                   split: ClassSplit) -> TrainReport:
    t0 = time.perf_counter()
    operator = normalize(graph, config.scheme)
    dims = mdl.uniform_dims(graph.d0, config.hidden, config.hidden,
                            config.layers)

    def accuracy(w, tasks):
        blocks = mdl.blocks_for(operator, np.unique(tasks.rows), config.layers)
        return task_accuracy(mdl.ModelParams.from_flat(w, dims), graph,
                             operator, tasks, blocks)

    results = []
    for r in range(config.repeats):
        root = config.seed + r
        episodes, val_rounds, test_round = _plan(config, graph, split,
                                                 operator, root)
        val_rounds = iter(val_rounds)

        def objective_at(t):
            episode = episodes[t]
            return episode_objective(
                dims, graph, operator, episode,
                weight_decay=config.hp.weight_decay,
                blocks=mdl.blocks_for(operator, episode.rows, config.layers))

        best_w, best_val, stop, trace, bundles = train_steps(
            optim.make_optimizer(config.optimizer, config.hp),
            mdl.init_params(dims, stream_rng(root, "init")).flatten(),
            config.episodes, objective_at,
            lambda w: accuracy(w, next(val_rounds))[0],
            config.val_interval, config.patience, f"repeat {r} episode ",
            config.collect_bundles)
        test_mean, test_std = accuracy(best_w, test_round)
        results.append(RepeatResult(
            seed=root, stop_episode=stop, best_val_acc=best_val,
            test_acc_mean=test_mean, test_acc_std=test_std, trace=trace,
            bundles=bundles, best_params=best_w))
    repeat_means = [r.test_acc_mean for r in results]
    return TrainReport(
        config=asdict(config), repeats=results,
        test_acc_mean=float(np.mean(repeat_means)),
        test_acc_std=float(np.std(repeat_means)),
        gnn_evals=sum(r.trace[-1]["gnn_evals_cum"] for r in results),
        mlp_evals=sum(r.trace[-1]["mlp_evals_cum"] for r in results),
        wall_seconds=time.perf_counter() - t0)


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

    def __post_init__(self):
        _require_positive(self, ("steps", "patience", "val_interval", "layers",
                                 "hidden"))


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
    best_params: np.ndarray = None   # best-validation weights


def standard_nc_train(config: NCConfig, graph: Graph, masks) -> NCReport:
    """Full-batch supervised training on the train mask with early stopping
    on the validation mask; reports accuracy on the test mask."""
    t0 = time.perf_counter()
    train_idx, val_idx, test_idx = (np.asarray(m, dtype=np.int64) for m in masks)
    combined = np.concatenate([train_idx, val_idx, test_idx])
    if np.unique(combined).size != combined.size:
        raise FsncError("train/val/test masks overlap")
    for name, idx in (("train", train_idx), ("val", val_idx),
                      ("test", test_idx)):
        if idx.size == 0:
            # its accuracy or loss would be a NaN mean of no nodes
            raise FsncError(f"the {name} mask is empty")
    operator = normalize(graph, config.scheme)
    operator.propagate_input(graph.features)   # not inside the first step
    dims = mdl.uniform_dims(graph.d0, config.hidden, graph.num_classes,
                            config.layers)
    spec = mdl.loss_spec_from_labels(train_idx, graph.labels,
                                     graph.num_classes,
                                     weight_decay=config.hp.weight_decay)
    obj = optim.model_objective(dims, graph, operator, spec)

    def accuracy(w, idx):
        acts = mdl.forward(mdl.ModelParams.from_flat(w, dims), graph, operator)
        pred = np.argmax(acts.logits[idx], axis=1)
        return float(np.mean(pred == graph.labels[idx]))

    best_w, best_val, stop, trace, _ = train_steps(
        optim.make_optimizer(config.optimizer, config.hp),
        mdl.init_params(dims, stream_rng(config.seed, "init")).flatten(),
        config.steps, lambda t: obj, lambda w: accuracy(w, val_idx),
        config.val_interval, config.patience, "step ")
    return NCReport(config=asdict(config), stop_step=stop,
                    best_val_acc=best_val, test_acc=accuracy(best_w, test_idx),
                    trace=trace, gnn_evals=obj.gnn_evals,
                    mlp_evals=obj.mlp_evals,
                    wall_seconds=time.perf_counter() - t0,
                    best_params=best_w)
