"""Episodic few-shot machinery: class splits, N-way K-shot sampling, a
prototypical episode head, the training protocol with validation/patience,
meta-testing, and a standard node-classification trainer."""

import functools
import math
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
    """One N-way K-shot task, or a round of them (`draw_round`), with the
    index arrays its loss and its evaluation read, built when it is made.
    Every array of a drawn episode is read-only and the episode is frozen:
    a shared run's tasks are read by every later run on its graph
    (`run_setup`)."""

    way: int
    shot: int
    query_per_class: int
    classes: np.ndarray        # global class id per local label
    support_idx: np.ndarray    # class-major, way*shot entries
    query_idx: np.ndarray      # class-major, way*query entries
    # the local label of each query
    query_labels: np.ndarray = field(init=False, repr=False, compare=False)
    # the flat index of each query's true-class logit in a C-ordered
    # (query, way) logit array: `arange(m) * way + query_labels`
    label_index: np.ndarray = field(init=False, repr=False, compare=False)
    # the episode's nodes, support then query: the rows its loss reads, in
    # the order `proto_head` takes their embeddings
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    # the sorted distinct rows of the task or of all of a round's tasks,
    # which a forward on their last-layer block outputs
    union: np.ndarray = field(init=False, repr=False, compare=False)
    # where each entry of `rows` is in `union`: `union[positions] == rows`
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = _read_only(np.repeat(np.arange(self.way),
                                      self.query_per_class))
        index = _read_only(np.arange(labels.size) * self.way + labels)
        rows = _read_only(np.concatenate([self.support_idx, self.query_idx],
                                         axis=-1))
        union = _read_only(np.unique(rows))
        positions = _read_only(np.searchsorted(union, rows))
        for name, value in (("query_labels", labels), ("label_index", index),
                            ("rows", rows), ("union", union),
                            ("positions", positions)):
            object.__setattr__(self, name, value)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=None)
def _one_hot(way: int, query: int) -> np.ndarray:
    """The read-only (way * query, way) one-hot of every episode's
    `query_labels`, which depend on its sizes alone."""
    return _read_only(np.repeat(np.eye(way), query, axis=0))


def _draw(graph: Graph, classes, way: int, shot: int, query: int,
          tasks: int, rng: np.random.Generator):
    """(classes, support, query) of `tasks` tasks drawn one after another
    from `rng`: `draw_round`'s arrays, read-only."""
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
    return (_read_only(chosen),
            _read_only(picked[:, :, :shot].reshape(tasks, -1)),
            _read_only(picked[:, :, shot:].reshape(tasks, -1)))


def draw_round(graph: Graph, classes, way: int, shot: int, query: int,
               tasks: int, rng: np.random.Generator) -> Episode:
    """`tasks` tasks drawn one after another from `rng`, as one episode
    whose arrays have a leading task axis (row t of `rows`: task t's)."""
    return Episode(way, shot, query,
                   *_draw(graph, classes, way, shot, query, tasks, rng))


def sample_episode(graph: Graph, classes, way: int, shot: int, query: int,
                   rng: np.random.Generator) -> Episode:
    """One task: the one-task case of `draw_round`, without its round."""
    return Episode(way, shot, query, *(
        a[0] for a in _draw(graph, classes, way, shot, query, 1, rng)))


def proto_head(emb: np.ndarray, episode: Episode, compute_grad: bool = True):
    """Prototypical head on the embeddings `emb` of the episode's rows
    (`episode.rows`: support then query): class prototypes are mean support
    embeddings, query logits are negative squared distances. Returns
    (cross-entropy, gradient of the cross-entropy w.r.t. `emb` or None):
    the head contract of `model.head_loss`, with the episode as target.
    `task_accuracy` scores episodes. Embeddings with a leading weight axis
    give one value per weight and a gradient with that axis, each weight's
    the same bits as alone.

    Per-call overhead dominates at episode sizes, so each step is one ufunc
    call where numpy's wrappers would make several, with the same floats:
    a mean is its sum divided by the count, `x / -m` is `-(x / m)`, the
    logits -d^2 are never negated, as each step that reads them negates
    exactly (max(-d^2) = -min(d^2), and `x + -y` is `x - y`), and the
    one-hot is subtracted whole, as `x - 0.0` is `x`.
    `tests/proto_head_oracle.py` is the plain head this one matches bit for
    bit."""
    way, shot = episode.way, episode.shot
    ns = way * shot
    lead = emb.shape[:-2]
    diff, d2 = _distances(emb, episode)    # the logits are -d2
    m = d2.shape[-2]
    dmin = np.minimum.reduce(d2, axis=-1, keepdims=True)
    e = dmin - d2                  # logits - max(logits)
    np.exp(e, out=e)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    lse = np.log(sums[..., 0])
    lse -= dmin[..., 0]
    lse += mdl.pick(d2, episode.label_index)
    value = np.add.reduce(lse, axis=-1) / m
    if not compute_grad:
        return value, None
    e /= sums                      # the softmax of the logits
    e -= _one_hot(way, episode.query_per_class)
    e /= -m                        # d(loss)/d(d^2), as logits = -d^2
    diff *= e[..., None]
    grad = np.empty(emb.shape)
    np.multiply(np.add.reduce(diff, axis=-2), 2.0, out=grad[..., ns:, :])
    dprot = np.add.reduce(diff, axis=-3)
    dprot *= -2.0
    dprot /= shot
    # a view: the support rows split into (way, shot) without a copy
    grad[..., :ns, :].reshape(lead + (way, shot, -1))[:] = dprot[..., None, :]
    return value, grad


def _distances(emb: np.ndarray, episode: Episode):
    """(diff, d2) of the embeddings `emb` of the episode's rows: each
    query's difference from every class prototype, the mean of its support
    embeddings, with shape (..., query, way, d), and its squared distances
    to them, (..., query, way)."""
    way, shot = episode.way, episode.shot
    ns = way * shot
    zs, zq = emb[..., :ns, :], emb[..., ns:, :]
    # (..., 1, way, d): every query's row of prototypes
    protos = np.add.reduce(zs.reshape(emb.shape[:-2] + (1, way, shot, -1)),
                           axis=-2)
    protos /= shot
    diff = zq[..., None, :] - protos
    return diff, np.add.reduce(diff * diff, axis=-1)


def proto_episode(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, episode: Episode,
                  weight_decay: float = 0.0, compute_grad: bool = True,
                  blocks=None):
    """(loss, flat gradient or None) of the prototypical head on the
    episode's rows, with weight decay: a forward plus one
    `model.head_loss` with `proto_head`. `blocks` are `model.blocks_for`
    of `episode.rows`: the episode's receptive field, whose logits are
    those rows, or, from a wide slice of `episode.union`, blocks whose
    lower layers run on all n rows and whose logits the head reads at
    `episode.positions`; None runs the forward on all n rows."""
    acts = mdl.forward(params, graph, operator, blocks)
    rows = (episode.rows if blocks is None
            else episode.positions if blocks[0].rows is None else None)
    return mdl.head_loss(params, acts, proto_head, episode, rows,
                         weight_decay, compute_grad)


def task_accuracy(params: mdl.ModelParams, graph: Graph,
                  operator: PropagationOperator, tasks: Episode, blocks):
    """Mean and standard deviation of the accuracy over the tasks of an
    evaluation round (`draw_round`). One forward over the union of the
    tasks' rows serves them all, and `proto_head`'s squared distances, for
    every task at once, pick each query's nearest prototype. `blocks` are
    `model.blocks_for` of that union (`tasks.union`), whose logits are read
    at `tasks.positions`; None runs the forward on all n rows."""
    emb = mdl.forward(params, graph, operator, blocks).logits
    emb = emb[tasks.rows if blocks is None else tasks.positions]
    nearest = np.argmin(_distances(emb, tasks)[1], axis=-1)
    accs = np.mean(nearest == tasks.query_labels, axis=1)
    return float(np.mean(accs)), float(np.std(accs))


def episode_objective(dims, graph: Graph, operator: PropagationOperator,
                      episode: Episode, weight_decay: float = 0.0, *,
                      blocks) -> optim.Objective:
    """The episode's GNN / PeerMLP objective pair. A GNN gradient is one
    `proto_episode`: `blocks` are the GNN operator's `model.blocks_for` of
    `episode.rows` (see `proto_episode`); None runs its forward on all n
    rows. The PeerMLP reads only the episode's rows of the features,
    gathered here once, so that no gradient evaluation gathers them; its
    gradient is a forward on them plus one `model.head_loss`, the
    `proto_episode` of its receptive field bit for bit."""
    peer_x = graph.features[episode.rows]

    def loss_grad(params, op):
        if op is operator:
            return proto_episode(params, graph, op, episode,
                                 weight_decay=weight_decay, blocks=blocks)
        acts = mdl.forward_features(params, peer_x, op)
        return mdl.head_loss(params, acts, proto_head, episode, None,
                             weight_decay)

    return optim.Objective(dims, operator, loss_grad)


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


# the keys of a trace row, in the order a trace CSV writes them; `flags`
# are the step's degenerate cases (`optim.StepRecord.flags`: zero-grad,
# zero-gv, zero-gG), joined by ";", empty when there are none
TRACE_COLUMNS = ("step", "loss", "grad_norm", "gv_norm", "gG_norm", "branch",
                 "flags", "gnn_evals_cum", "mlp_evals_cum", "wall_ms")


def train_steps(opt, w, steps, objective_at, val_acc, val_interval,
                patience, where, collect_bundles=False):
    """The step / trace / early-stopping loop of every trainer.

    `objective_at(t)` builds step t's objective before the timed region,
    `val_acc(w)` scores a validation round and `where` prefixes the step
    index in the error that ends a run at a step whose loss or gradient
    norm is not finite. The evaluation counts are per-step deltas, so an
    objective may serve one step or the whole run. Returns
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
        # a step that overflows is reported by the check below, alone
        with np.errstate(over="ignore", invalid="ignore"):
            step_start = time.perf_counter()
            w, rec = opt.step(obj, w)
            wall_ms = (time.perf_counter() - step_start) * 1e3
        for what, value in (("loss", rec.loss),
                            ("gradient norm", rec.grad_norm)):
            if not math.isfinite(value):
                raise FsncError(f"non-finite {what} {value} at {where}{t}")
        gnn_cum += obj.gnn_evals - gnn_before
        mlp_cum += obj.mlp_evals - mlp_before
        trace.append({"step": t, "loss": rec.loss, "grad_norm": rec.grad_norm,
                      "gv_norm": rec.gv_norm, "gG_norm": rec.gG_norm,
                      "branch": rec.branch, "flags": ";".join(rec.flags),
                      "gnn_evals_cum": gnn_cum,
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


def repeat_tasks(config: ProtocolConfig, graph: Graph, split: ClassSplit,
                 root: int) -> tuple:
    """The tasks of the repeat whose root seed is `root`, as (episodes,
    validation rounds, test round) with one episode per step. The episode
    of every step, every validation round and the test round are drawn
    from the repeat's `episodes`, `val` and `test` streams, which gives the
    same draws as drawing each task when it is used."""
    sizes = (config.way, config.shot, config.query)
    ep_rng, val_rng = stream_rng(root, "episodes"), stream_rng(root, "val")
    episodes = tuple(sample_episode(graph, split.train_classes, *sizes,
                                    ep_rng) for _ in range(config.episodes))
    rounds = tuple(draw_round(graph, split.val_classes, *sizes,
                              config.val_tasks, val_rng)
                   for _ in range(config.episodes // config.val_interval))
    return episodes, rounds, draw_round(graph, split.novel_classes, *sizes,
                                        config.test_tasks,
                                        stream_rng(root, "test"))


def run_setup(config: ProtocolConfig, graph: Graph, split: ClassSplit,
              operator: PropagationOperator) -> tuple:
    """(tasks, slices, plan) of a run of `config.repeats` repeats.

    `tasks` holds the `repeat_tasks` of every repeat, whose root seeds run
    from `config.seed`. `slices` holds, for every repeat, the last-layer
    slice of each training episode and of each evaluation round, its
    validation rounds then its test round. An episode gets the narrow slice
    of its rows (`cut_slice(rows, True)`), the head of its receptive field,
    where they are `model.worth_slicing`, and otherwise the wide slice of
    its sorted distinct rows (`union`), the last of `model.top_blocks` of
    them. A round gets the narrow slice of its `union` where that is worth
    slicing, and None where its forward runs on all n rows.

    `plan` is the layer-0 plan: the wide slice A[S_0] of the sorted rows
    S_0 of A.X that all the training episodes and evaluation rounds read,
    found by one receptive-field walk over the union of their rows, and
    made column-major where its rows ascend (`PropagationOperator.cut_plan`),
    once per graph. The run fills its own operator's memo from it with one
    product (`PropagationOperator.fill_input`). It is None under the
    identity operator, which fills nothing, and where the run fills all of
    A.X instead: where any of those reads takes the full-graph path, or
    where S_0 holds half of A's stored entries or more, a near-copy of A
    whose rows the full fill gives the same bits.

    The set-up is made on the first request and kept on the graph
    (`Graph.memo`) under the scheme, the layer count and `_draw_key`, so
    every later arm, optimizer and rho reads the same tasks and read-only
    arrays and wraps them in operators of its own. A one-layer forward or
    the identity operator cuts no slice (each entry is None)."""
    slicing = config.layers > 1 and not operator.is_identity

    def worth(rows):
        return mdl.worth_slicing(operator, rows, config.layers)

    def top(e):
        if not slicing:
            return None
        if worth(e.rows):
            return operator.cut_slice(e.rows, True)
        return operator.cut_slice(e.union, False)

    def scored(t):
        if slicing and worth(t.union):
            return operator.cut_slice(t.union, True)
        return None

    def make():
        tasks = [repeat_tasks(config, graph, split, root) for root in
                 range(config.seed, config.seed + config.repeats)]
        slices = [(tuple(map(top, episodes)),
                   tuple(map(scored, rounds + (test_round,))))
                  for episodes, rounds, test_round in tasks]
        reads = [rows for episodes, rounds, test_round in tasks
                 for rows in [e.rows for e in episodes]
                 + [t.union for t in rounds + (test_round,)]]
        if operator.is_identity or not all(map(worth, reads)):
            return tasks, slices, None
        union = np.unique(np.concatenate(reads))
        rows = mdl.receptive_field(operator, union, config.layers)[0].rows
        if 2 * operator.row_nnz(rows) >= operator.matrix.nnz:
            return tasks, slices, None
        return tasks, slices, operator.cut_plan(rows)

    return graph.memo((operator.scheme, config.layers,
                       _draw_key(config, split)), make)


def _draw_key(config: ProtocolConfig, split: ClassSplit) -> tuple:
    """Every input that decides a run's draws (`repeat_tasks` of each of
    its repeats)."""
    return (tuple((c.dtype.str, c.tobytes()) for c in map(np.asarray, (
        split.train_classes, split.val_classes, split.novel_classes))),
        config.way, config.shot, config.query, config.episodes,
        config.val_interval, config.val_tasks, config.test_tasks,
        config.seed, config.repeats)


def train_protocol(config: ProtocolConfig, graph: Graph,
                   split: ClassSplit) -> TrainReport:
    """`config.repeats` repeats of episodic training with validation and
    early stopping, each scored on its test round. Repeat r runs the tasks
    of root seed `config.seed + r` (`repeat_tasks`); the operator, its A.X
    fill, the blocks and the evaluation counters are this run's own.

    The run reads its set-up (`run_setup`) from the graph, where the first
    run with its scheme, layer count and draws made it: the tasks, each
    training episode's and evaluation round's last-layer slice, and the
    layer-0 plan it fills its A.X rows from.

    The clock of `wall_seconds` starts once the operator and the run's
    set-up are made, so that the first run on a graph carries none of what
    later runs reuse. The run's one A.X fill from the plan is inside it,
    before the first step, and so are the cuts below the last layer (three
    layers and more), which stay per operator."""
    operator = normalize(graph, config.scheme)
    drawn, slices, plan = run_setup(config, graph, split, operator)
    t0 = time.perf_counter()
    operator.fill_input(graph.features, plan)
    dims = mdl.uniform_dims(graph.d0, config.hidden, config.hidden,
                            config.layers)

    def accuracy(w, tasks, top):
        blocks = mdl.blocks_for(operator, tasks.union, config.layers, top)
        return task_accuracy(mdl.ModelParams.from_flat(w, dims), graph,
                             operator, tasks, blocks)

    results = []
    for r, ((episodes, val_rounds, test_round), (tops, evals)) in enumerate(
            zip(drawn, slices)):
        root = config.seed + r
        scored = iter(zip(val_rounds, evals))

        def objective_at(t):
            episode = episodes[t]
            return episode_objective(
                dims, graph, operator, episode,
                weight_decay=config.hp.weight_decay,
                blocks=mdl.blocks_for(operator, episode.rows, config.layers,
                                      tops[t]))

        best_w, best_val, stop, trace, bundles = train_steps(
            optim.make_optimizer(config.optimizer, config.hp),
            mdl.init_params(dims, stream_rng(root, "init")).flatten(),
            config.episodes, objective_at,
            lambda w: accuracy(w, *next(scored))[0],
            config.val_interval, config.patience, f"repeat {r} episode ",
            config.collect_bundles)
        test_mean, test_std = accuracy(best_w, test_round, evals[-1])
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
    on the validation mask; reports accuracy on the test mask.

    The clock of `wall_seconds` starts once the operator and its full A.X
    fill, the mask checks, the loss spec, the objective with its last-layer
    block (`optim.model_objective`) and the blocks that score the
    validation and test masks are made. Each mask is scored by one forward
    on `model.top_blocks` of its sorted rows, whose logits are those rows
    of a forward over all n rows, bit for bit."""
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
    operator.fill_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, config.hidden, graph.num_classes,
                            config.layers)
    spec = mdl.loss_spec_from_labels(train_idx, graph.labels,
                                     graph.num_classes,
                                     weight_decay=config.hp.weight_decay)
    obj = optim.model_objective(dims, graph, operator, spec)
    val_rows, test_rows = np.sort(val_idx), np.sort(test_idx)
    val_blocks, test_blocks = (mdl.top_blocks(operator, rows, config.layers)
                               for rows in (val_rows, test_rows))
    t0 = time.perf_counter()

    def accuracy(w, rows, blocks):
        logits = mdl.forward_features(mdl.ModelParams.from_flat(w, dims),
                                      graph.features, operator,
                                      blocks).logits
        return float(np.mean(np.argmax(logits, axis=1) == graph.labels[rows]))

    best_w, best_val, stop, trace, _ = train_steps(
        optim.make_optimizer(config.optimizer, config.hp),
        mdl.init_params(dims, stream_rng(config.seed, "init")).flatten(),
        config.steps, lambda t: obj,
        lambda w: accuracy(w, val_rows, val_blocks),
        config.val_interval, config.patience, "step ")
    return NCReport(config=asdict(config), stop_step=stop,
                    best_val_acc=best_val,
                    test_acc=accuracy(best_w, test_rows, test_blocks),
                    trace=trace, gnn_evals=obj.gnn_evals,
                    mlp_evals=obj.mlp_evals,
                    wall_seconds=time.perf_counter() - t0,
                    best_params=best_w)
