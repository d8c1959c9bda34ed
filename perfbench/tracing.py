"""Outside-in span tracing of the fgsam layers.

The tracer wraps public functions and methods of `graphcore`, `model`,
`optim` and `fsnc` by rebinding module and class attributes from this file,
records one span per call (name, start, end, parent id, arm) in memory, and
restores every attribute when tracing ends. Nothing under `src/` is edited.
Per-layer metrics are derived from the spans after the run.
"""

import contextlib
import functools
import gzip
import hashlib
import statistics
import sys
import time
from collections import defaultdict, namedtuple

from fgsam import fsnc, graphcore, model, optim

Span = namedtuple("Span", "sid parent name start end arm attrs")

# (owner, attribute) pairs that get a span per call. Module functions are
# rebound in every fgsam module that imported them by name.
TARGETS = (
    (graphcore, "generate_csbm"), (graphcore, "build_graph"),
    (graphcore, "with_num_classes"), (graphcore, "normalize"),
    (graphcore.Graph, "adjacency"), (graphcore.Graph, "degrees"),
    (graphcore.PropagationOperator, "apply"),
    (graphcore.PropagationOperator, "apply_t"),
    (model, "init_params"), (model, "loss_spec_from_labels"),
    (model, "forward"), (model, "forward_features"), (model, "softmax_rows"),
    (model, "loss"), (model, "backward"), (model, "backward_from_acts"),
    (model, "backward_from_output"),
    (optim, "model_objective"), (optim, "make_optimizer"),
    (optim.Objective, "gnn_grad"), (optim.Objective, "mlp_grad"),
    (optim.AdamOptimizer, "step"), (optim.SamOptimizer, "step"),
    (optim.FgsamOptimizer, "step"), (optim.FgsamPlusOptimizer, "step"),
    (optim, "adam_step"), (optim, "sam_epsilon"), (optim, "decompose"),
    (optim, "topology_grad"),
    (fsnc, "split_classes"), (fsnc, "sample_episode"),
    (fsnc, "proto_episode"), (fsnc, "episode_objective"),
    (fsnc, "train_protocol"), (fsnc, "standard_nc_train"),
)

SPMM = "graphcore.PropagationOperator.apply"
SPMM_T = "graphcore.PropagationOperator.apply_t"
FORWARD = "model.forward"
FORWARD_FEATURES = "model.forward_features"
GNN_GRAD = "optim.Objective.gnn_grad"
MLP_GRAD = "optim.Objective.mlp_grad"
ARM = "bench.arm"
LAYERS = ("graphcore", "model", "optim", "fsnc")
COMPOSE = ("optim.adam_step", "optim.sam_epsilon", "optim.decompose",
           "optim.topology_grad")


def span_name(owner, attr) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _spmm_attrs(args):
    op, x = args[0], args[1]
    if op.is_identity:
        return None
    mat = op.matrix
    cols = x.shape[1] if x.ndim == 2 else 1
    moved = (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
             + x.nbytes + mat.shape[0] * cols * x.itemsize)
    return (mat.nnz, cols, moved)


def _weight_key(params) -> str:
    return hashlib.blake2b(params.flatten().tobytes(), digest_size=8).hexdigest()


def _episode_rows(args, kwargs):
    episode = args[3] if len(args) > 3 else kwargs["episode"]
    return episode.support_idx.size + episode.query_idx.size


# Per-span attributes taken from the call's positional arguments. The SpMM
# describer returns None for the identity operator, whose call gets no span.
_DESCRIBE = {
    SPMM: _spmm_attrs,
    SPMM_T: _spmm_attrs,
    FORWARD: lambda args: (args[1].n, _weight_key(args[0])),
    "model.softmax_rows": lambda args: (args[0].shape[0],),
    "model.loss": lambda args: (args[1].indices.size,),
}


class Tracer:
    """Records spans in memory. `arm` labels the spans of the running
    optimizer arm; it is None during set-up."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.arm = None
        self._stack = [0]
        self._next = 1
        self._saved = []

    def _record(self, name, fn, args, kwargs, attrs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.arm,
                                   attrs))

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A span around a block of the benchmark's own code."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = self.clock()
        try:
            yield sid
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.arm,
                                   attrs))

    def _wrapper(self, name, fn):
        describe = _DESCRIBE.get(name)
        record = self._record

        if name == "fsnc.proto_episode":
            @functools.wraps(fn)
            def episode(*args, **kwargs):
                grad = kwargs.get("compute_grad",
                                  args[5] if len(args) > 5 else True)
                kind = "train" if grad else "eval"
                return record(f"{name}.{kind}", fn, args, kwargs,
                              (_episode_rows(args, kwargs),))
            return episode

        if describe is _spmm_attrs:
            @functools.wraps(fn)
            def spmm(*args, **kwargs):
                attrs = describe(args)
                if attrs is None:           # identity: no message passing
                    return fn(*args, **kwargs)
                return record(name, fn, args, kwargs, attrs)
            return spmm

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(args) if describe else None
            return record(name, fn, args, kwargs, attrs)
        return traced

    def install(self):
        """Rebind every target to a tracing wrapper; `restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fgsam" or n.startswith("fgsam.")]
        for owner, attr in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrapper(span_name(owner, attr), original)
            holders = [owner]
            if not isinstance(owner, type):
                holders = [m for m in modules
                           if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that its child
    spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, reach), min(c1, s.end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s.sid] = (s.end - s.start) - covered
    return out


def write_spans(path, spans) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("sid,parent,name,start,end,arm,attrs\n")
        for s in spans:
            attrs = "" if s.attrs is None else " ".join(map(str, s.attrs))
            fh.write(f"{s.sid},{s.parent},{s.name},{s.start!r},{s.end!r},"
                     f"{s.arm or ''},{attrs}\n")


def _layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_metrics(spans, arms, num_layers: int) -> dict:
    """Per-layer metrics from the spans of traced protocol rounds (one span
    per arm, named `bench.arm`) and of traced set-ups (`bench.setup`). Sums
    are per protocol round, set-up figures per set-up. `num_layers` is the
    network depth, for the per-layer SpMM split."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    rounds = max(1, sum(1 for s in spans if s.name == ARM) // len(arms))
    setups = max(1, sum(1 for s in spans if s.name == "bench.setup"))
    proto = [s for s in spans if s.arm is not None]
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in proto:
        total[s.name] += selfs[s.sid]
        calls[s.name] += 1

    def per_round(x):
        return x / rounds

    m = {}
    # graphcore
    spmm = [s for s in proto if s.name == SPMM]
    spmm_t = [s for s in proto if s.name == SPMM_T]
    m["graphcore.spmm.calls"] = per_round(len(spmm))
    m["graphcore.spmm.self_s"] = per_round(total[SPMM])
    by_depth = defaultdict(float)
    ordered = defaultdict(list)
    for s in spmm:
        if by_id.get(s.parent, s).name == FORWARD_FEATURES:
            ordered[s.parent].append(s)
    for group in ordered.values():
        for index, s in enumerate(sorted(group, key=lambda s: s.start)):
            by_depth[index] += selfs[s.sid]
    for index in range(num_layers):
        m[f"graphcore.spmm.l{index}.self_s"] = per_round(by_depth[index])
    m["graphcore.spmm_t.calls"] = per_round(len(spmm_t))
    m["graphcore.spmm_t.self_s"] = per_round(total[SPMM_T])
    m["graphcore.spmm.gflop_computed"] = per_round(
        sum(2.0 * s.attrs[0] * s.attrs[1] for s in spmm + spmm_t)) / 1e9
    m["graphcore.spmm.mb_computed"] = per_round(
        sum(s.attrs[2] for s in spmm + spmm_t)) / 1e6
    m["graphcore.setup_s"] = sum(
        selfs[s.sid] for s in spans
        if s.arm is None and _layer_of(s.name) == "graphcore") / setups

    # model
    forwards = [s for s in proto if s.name == FORWARD]
    m["model.forward.calls"] = per_round(len(forwards))
    m["model.forward.self_s"] = per_round(total[FORWARD]
                                          + total[FORWARD_FEATURES])
    m["model.backward.calls"] = per_round(calls["model.backward_from_output"])
    m["model.backward.self_s"] = per_round(
        total["model.backward"] + total["model.backward_from_acts"]
        + total["model.backward_from_output"])
    m["model.softmax.rows"] = per_round(
        sum(s.attrs[0] for s in proto if s.name == "model.softmax_rows"))
    m["model.softmax.self_s"] = per_round(total["model.softmax_rows"])
    m["model.loss.self_s"] = per_round(total["model.loss"])
    loss_rows = sum(s.attrs[0] for s in proto
                    if s.name in ("model.loss", "fsnc.proto_episode.train",
                                  "fsnc.proto_episode.eval"))
    out_rows = sum(s.attrs[0] for s in forwards)
    m["model.rows_used_ratio"] = loss_rows / out_rows if out_rows else 0.0

    # optim
    step_names = {span_name(cls, "step") for cls in
                  (optim.AdamOptimizer, optim.SamOptimizer,
                   optim.FgsamOptimizer, optim.FgsamPlusOptimizer)}
    for arm in arms:
        steps = sum(1 for s in proto if s.arm == arm and s.name in step_names)
        for kind, name in (("gnn", GNN_GRAD), ("mlp", MLP_GRAD)):
            evals = sum(1 for s in proto if s.arm == arm and s.name == name)
            m[f"optim.{kind}_evals_per_step.{arm_key(arm)}"] = (
                evals / steps if steps else 0.0)
    p50 = {}
    for kind, name in (("gnn", GNN_GRAD), ("mlp", MLP_GRAD)):
        durations = [(s.end - s.start) * 1e3 for s in proto if s.name == name]
        p50[kind] = statistics.median(durations) if durations else 0.0
        m[f"optim.{kind}_grad.ms_p50"] = p50[kind]
    m["optim.gnn_mlp_cost_ratio"] = (p50["gnn"] / p50["mlp"]
                                     if p50["mlp"] else 0.0)
    m["optim.compose.self_s"] = per_round(
        sum(total[n] for n in step_names) + sum(total[n] for n in COMPOSE))

    # fsnc
    for key, name in (("sample_episode", "fsnc.sample_episode"),
                      ("proto_episode.train", "fsnc.proto_episode.train"),
                      ("proto_episode.eval", "fsnc.proto_episode.eval")):
        m[f"fsnc.{key}.calls"] = per_round(calls[name])
        m[f"fsnc.{key}.self_s"] = per_round(total[name])
    m["fsnc.eval_forwards_per_weight"] = _eval_forwards_per_weight(
        forwards, by_id)

    # shares of the traced protocol time, by layer
    wall = sum(s.end - s.start for s in proto if s.name == ARM)
    layer_self = defaultdict(float)
    for s in proto:
        layer_self[_layer_of(s.name)] += selfs[s.sid]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall if wall else 0.0
    m["graphcore.spmm.share"] = ((total[SPMM] + total[SPMM_T]) / wall
                                 if wall else 0.0)
    m["trace.spans"] = per_round(len(proto))
    return m


def _eval_forwards_per_weight(forwards, by_id) -> float:
    """Forwards made outside a gradient evaluation, per distinct weight
    vector they were made at (within one arm of one round)."""
    count = 0
    weights = set()
    for s in forwards:
        node, arm_sid, in_grad = s, None, False
        while node.parent in by_id:
            node = by_id[node.parent]
            if node.name in (GNN_GRAD, MLP_GRAD):
                in_grad = True
                break
            if node.name == ARM:
                arm_sid = node.sid
        if not in_grad:
            count += 1
            weights.add((arm_sid, s.attrs[1]))
    return count / len(weights) if weights else 0.0


def arm_key(arm: str) -> str:
    """Metric-name form of an optimizer name (`fgsam+` -> `fgsam_plus`)."""
    return arm.replace("+", "_plus")
