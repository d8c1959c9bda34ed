"""The objectives' engine against the full-graph oracle: forwards on the
loss rows, narrowing layers propagated after their transform, and the work
that the loss-row cut leaves."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import fsnc, optim
from fgsam.graphcore import (CsbmParams, PropagationOperator, generate_csbm,
                             normalize)
import full_graph_oracle as oracle

SCHEMES = ("gcn-sym", "mean-neighbors")
IDENTITY = PropagationOperator("identity", None)


@pytest.fixture(scope="module")
def graph():
    # 4 classes of 30 nodes, 8 features
    return generate_csbm(CsbmParams(K=4, nodes_per_class=30, p=0.15, q=0.02,
                                    D=2.0, l=8, seed=3))


def rel_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def nc_spec(graph, subset: bool, weight_decay: float) -> mdl.LossSpec:
    rng = np.random.default_rng(0)
    rows = (np.sort(rng.choice(graph.n, 70, replace=False)) if subset
            else np.arange(graph.n))
    return mdl.loss_spec_from_labels(rows, graph.labels, graph.num_classes,
                                     weight_decay=weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("subset", [True, False], ids=["subset", "all-rows"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_model_objective_matches_full_graph_oracle(graph, layers, scheme,
                                                   subset, weight_decay):
    operator = normalize(graph, scheme)
    spec = nc_spec(graph, subset, weight_decay)
    # hidden 6 narrows to the 4 classes on top, hidden 3 widens to them
    for hidden in (6, 3):
        dims = mdl.uniform_dims(graph.d0, hidden, graph.num_classes, layers)
        obj = optim.model_objective(dims, graph, operator, spec)
        for seed in range(3):
            w = mdl.init_params(dims, seed).flatten()
            params = mdl.ModelParams.from_flat(w, dims)
            for grad_fn, op in ((obj.gnn_grad, operator),
                                (obj.mlp_grad, IDENTITY)):
                value, grad = grad_fn(w)
                want_value, want_grad = oracle.loss_grad(
                    params, graph.features, op, spec)
                assert abs(value - want_value) <= 1e-12 * abs(want_value)
                assert rel_err(grad, want_grad) <= 1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_proto_episode_on_fsnc_dims_is_the_oracle_bit_for_bit(graph, layers,
                                                              scheme):
    operator = normalize(graph, scheme)
    dims = mdl.uniform_dims(graph.d0, 6, 6, layers)
    rng = np.random.default_rng(layers)
    for _ in range(3):
        episode = fsnc.sample_episode(graph, np.arange(4), way=3, shot=2,
                                      query=4, rng=rng)
        params = mdl.init_params(dims, rng)
        # on blocks the episode engine sums in another order; it is held
        # to this one within a tolerance by test_fsnc.TestReceptiveField
        value, grad = fsnc.proto_episode(params, graph, operator, episode,
                                         weight_decay=0.01)
        want = oracle.proto_episode(params, graph, operator, episode, 0.01)
        assert value == want[0]
        assert np.array_equal(grad, want[1])


def test_identity_operator_is_the_oracle_bit_for_bit(graph):
    # under the identity operator a narrowing layer's A (H W) is H W
    spec = nc_spec(graph, True, 0.0)
    for layers in (2, 3):
        dims = mdl.uniform_dims(graph.d0, 6, graph.num_classes, layers)
        obj = optim.model_objective(dims, graph, IDENTITY, spec)
        params = mdl.init_params(dims, layers)
        value, grad = obj.gnn_grad(params.flatten())
        x = graph.features[spec.indices]
        local = mdl.LossSpec(np.arange(spec.indices.size), spec.targets)
        want_value, want_grad = oracle.loss_grad(params, x, IDENTITY, local)
        assert value == want_value and np.array_equal(grad, want_grad)


def recorded_work(monkeypatch):
    """Spies on the forwards and on the SpMMs: (x rows, blocks) per
    forward and (matrix shape, stored entries, columns) per product."""
    forwards, products = [], []
    forward_features = mdl.forward_features
    apply, apply_t = PropagationOperator.apply, PropagationOperator.apply_t

    def forward_spy(params, x, operator, blocks=None):
        forwards.append((x.shape[0], blocks))
        return forward_features(params, x, operator, blocks)

    def spmm_spy(original, kind):
        def spy(self, x):
            if not self.is_identity:
                products.append((kind, self.matrix.shape, self.matrix.nnz,
                                 x.shape[1]))
            return original(self, x)
        return spy

    monkeypatch.setattr(mdl, "forward_features", forward_spy)
    monkeypatch.setattr(PropagationOperator, "apply", spmm_spy(apply, "A"))
    monkeypatch.setattr(PropagationOperator, "apply_t",
                        spmm_spy(apply_t, "A^T"))
    return forwards, products


def test_loss_row_cut_work(graph, monkeypatch):
    operator = normalize(graph, "gcn-sym")
    operator.propagate_input(graph.features)
    spec = nc_spec(graph, True, 0.0)
    rows = spec.indices
    n, m, c = graph.n, rows.size, graph.num_classes
    dims = mdl.uniform_dims(graph.d0, 6, c, 2)
    forwards, products = recorded_work(monkeypatch)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, 0).flatten()
    obj.gnn_grad(w)
    # lower layer on all n rows, reading A.X from the memo; the top layer
    # through A[loss rows] with all n columns, after its transform, so each
    # of its two products moves the C output columns
    (x_rows, blocks), = forwards
    assert x_rows == n
    assert blocks[0].rows is None and blocks[0].op is operator
    assert np.array_equal(blocks[1].rows, rows)
    nnz = operator.row_nnz(rows)
    assert products == [("A", (m, n), nnz, c), ("A^T", (m, n), nnz, c)]
    # the PeerMLP runs on the loss rows' features, and no SpMM
    forwards.clear()
    products.clear()
    obj.mlp_grad(w)
    assert forwards == [(m, None)] and products == []


def test_all_row_spec_runs_on_all_rows(graph, monkeypatch):
    operator = normalize(graph, "gcn-sym")
    operator.propagate_input(graph.features)
    spec = nc_spec(graph, False, 0.0)
    dims = mdl.uniform_dims(graph.d0, 6, graph.num_classes, 2)
    forwards, products = recorded_work(monkeypatch)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, 0).flatten()
    obj.gnn_grad(w)
    obj.mlp_grad(w)
    assert forwards == [(graph.n, None)] * 2
    shape, nnz, c = operator.matrix.shape, operator.matrix.nnz, dims[-1]
    assert products == [("A", shape, nnz, c), ("A^T", shape, nnz, c)]
