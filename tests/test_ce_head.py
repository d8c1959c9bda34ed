"""`model.ce_head`, the cross-entropy head of the supervised objective,
which reads the logits class-major, against the row-major head it replaced
(`full_graph_oracle.ce_head`): bit for bit up to 7 classes and within 1e-12
relative from 8, alone, behind `model.loss` / `backward_from_acts` and
inside `optim.model_objective`, whose work and traces it must not change."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import cli, fsnc, optim
from fgsam.graphcore import (CsbmParams, PropagationOperator, generate_csbm,
                             normalize)
import full_graph_oracle as oracle

BIT_EXACT = (2, 5, 7)
TOLERANT = (8, 10, 40)
TOL = 1e-12
IDENTITY = PropagationOperator("identity", None)


def rel_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def assert_matches(c, got, want):
    """Bit for bit up to 7 classes, within TOL relative from 8."""
    (value, grad), (want_value, want_grad) = got, want
    if c in BIT_EXACT:
        assert value == want_value and np.array_equal(grad, want_grad)
    else:
        assert abs(value - want_value) <= TOL * abs(want_value)
        assert rel_err(grad, want_grad) <= TOL


def make_targets(rng, m, c, soft):
    if soft:
        return rng.dirichlet(np.ones(c), size=m)
    targets = np.zeros((m, c))
    targets[np.arange(m), rng.integers(0, c, m)] = 1.0
    return targets


@pytest.mark.parametrize("scale", [3.0, 1e4], ids=["moderate", "1e4"])
@pytest.mark.parametrize("soft", [False, True], ids=["one-hot", "soft"])
@pytest.mark.parametrize("c", BIT_EXACT + TOLERANT)
def test_head_matches_row_major_oracle(c, soft, scale):
    rng = np.random.default_rng(c)
    for m in (1, 57):
        z = scale * rng.standard_normal((m, c))
        targets = make_targets(rng, m, c, soft)
        logits_t, targets_t = np.ascontiguousarray(z.T), targets.T.copy()
        value, grad = mdl.ce_head(z, targets_t)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert grad.shape == (m, c) and grad.flags.c_contiguous
        assert_matches(c, (value, grad), oracle.ce_head(logits_t, targets_t))
        # the value alone is the same value
        assert mdl.ce_head(z, targets_t, compute_grad=False) == (value, None)
        # the head leaves its inputs as they were
        assert np.array_equal(z, logits_t.T)
        assert np.array_equal(targets_t, targets.T)


def class_graph(c):
    return generate_csbm(CsbmParams(K=c, nodes_per_class=5, p=0.4, q=0.05,
                                    D=2.0, l=max(8, c), seed=c))


def spec_rows(n, kind, rng):
    if kind == "subset":
        return np.sort(rng.choice(n, n // 2, replace=False))
    return np.arange(n) if kind == "all-n" else rng.permutation(n)


SPEC_KINDS = ("subset", "all-n", "all-n-permuted")


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("kind", SPEC_KINDS)
@pytest.mark.parametrize("c", BIT_EXACT + TOLERANT)
def test_loss_and_backward_from_acts_use_the_head(c, kind, weight_decay):
    graph = class_graph(c)
    operator = normalize(graph, "gcn-sym")
    rng = np.random.default_rng(c)
    rows = spec_rows(graph.n, kind, rng)
    targets = make_targets(rng, rows.size, c, soft=kind == "subset")
    spec = mdl.LossSpec(rows, targets, weight_decay)
    dims = mdl.uniform_dims(graph.d0, 6, c, 2)
    params = mdl.init_params(dims, 0)
    acts = mdl.forward(params, graph, operator)
    got = (mdl.loss(acts, spec, params),
           mdl.backward_from_acts(params, operator, acts, spec))
    # the old head on the spec's rows, its gradient scattered by hand
    value, d = oracle.ce_head(acts.logits[rows].T, spec.targets.T)
    d_out = np.zeros_like(acts.logits)
    d_out[rows] = d
    grad = mdl.backward_from_output(params, operator, acts, d_out)
    flat = params.flatten()
    if weight_decay:
        value += weight_decay * float(flat @ flat)
        grad += 2.0 * weight_decay * flat
    assert_matches(c, got, (value, grad))


@pytest.mark.parametrize("kind", SPEC_KINDS)
@pytest.mark.parametrize("c", BIT_EXACT + TOLERANT)
def test_model_objective_matches_the_oracle(c, kind):
    graph = class_graph(c)
    operator = normalize(graph, "gcn-sym")
    rng = np.random.default_rng(c)
    rows = spec_rows(graph.n, kind, rng)
    spec = mdl.LossSpec(rows, make_targets(rng, rows.size, c, True), 0.01)
    dims = mdl.uniform_dims(graph.d0, 6, c, 2)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, 1).flatten()
    params = mdl.ModelParams.from_flat(w, dims)
    # the GNN's engine sums in another order than the oracle's
    value, grad = obj.gnn_grad(w)
    want_value, want_grad = oracle.loss_grad(params, graph.features,
                                             operator, spec)
    assert abs(value - want_value) <= TOL * abs(want_value)
    assert rel_err(grad, want_grad) <= TOL
    # the PeerMLP's is the oracle's on the rows it reads
    x = graph.features if kind != "subset" else graph.features[rows]
    local = spec if kind != "subset" else mdl.LossSpec(
        np.arange(rows.size), spec.targets, spec.weight_decay)
    assert_matches(c, obj.mlp_grad(w),
                   oracle.loss_grad(params, x, IDENTITY, local))


@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_each_gradient_runs_the_head_once_on_the_loss_rows(kind,
                                                           monkeypatch):
    graph = class_graph(4)
    operator = normalize(graph, "gcn-sym")
    rows = spec_rows(graph.n, kind, np.random.default_rng(0))
    spec = mdl.loss_spec_from_labels(rows, graph.labels, 4)
    dims = mdl.uniform_dims(graph.d0, 6, 4, 2)
    heads, softmaxes = [], []
    ce_head, softmax_rows = mdl.ce_head, mdl.softmax_rows

    def head_spy(logits, targets_t, compute_grad=True):
        heads.append(logits.shape)
        return ce_head(logits, targets_t, compute_grad)

    def softmax_spy(z):
        softmaxes.append(z.shape)
        return softmax_rows(z)

    monkeypatch.setattr(mdl, "ce_head", head_spy)
    monkeypatch.setattr(mdl, "softmax_rows", softmax_spy)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, 0).flatten()
    for grad_fn in (obj.gnn_grad, obj.mlp_grad):
        heads.clear()
        grad_fn(w)
        assert heads == [(rows.size, 4)]
    assert softmaxes == []


@pytest.fixture(scope="module")
def bench_graph():
    return cli.bench_instance(0)


def nc_run(graph, arm):
    config = fsnc.NCConfig(steps=20, val_interval=10, patience=3,
                           optimizer=arm,
                           hp=optim.Hyperparams(rho=0.05, lambda_topo=0.5,
                                                k=2, weight_decay=1e-4))
    return fsnc.standard_nc_train(config, graph, cli.make_nc_masks(graph, 0))


@pytest.mark.parametrize("arm", optim.OPTIMIZER_NAMES)
def test_bench_training_trace_is_the_oracle_heads(bench_graph, arm,
                                                  monkeypatch):
    # five classes: the class-major head is the row-major one bit for bit
    got = nc_run(bench_graph, arm)
    monkeypatch.setattr(mdl, "ce_head", lambda logits, targets_t, grad=True:
                        oracle.ce_head(logits.T, targets_t, grad))
    want = nc_run(bench_graph, arm)
    assert len(got.trace) == 20
    columns = [c for c in fsnc.TRACE_COLUMNS if c != "wall_ms"]
    # assert_equal takes NaN (an arm's unused norms) as equal to NaN
    np.testing.assert_equal([[row[c] for c in columns] for row in got.trace],
                            [[row[c] for c in columns] for row in want.trace])
    assert np.array_equal(got.best_params, want.best_params)
    assert (got.best_val_acc, got.test_acc) == (want.best_val_acc,
                                                want.test_acc)
