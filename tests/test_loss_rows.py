"""The objectives' engine against the full-graph oracle: forwards on the
loss rows, narrowing layers propagated after their transform, and the work
that the loss-row cut leaves."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import fsnc, optim
from fgsam.graphcore import CsbmParams, PropagationOperator, generate_csbm
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
    operator = oracle.filled(graph, scheme)
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


SPEC_ROWS = ("sorted-subset", "unsorted-subset", "all-rows",
             "all-permuted")


def rows_of(graph, kind: str) -> np.ndarray:
    rng = np.random.default_rng(1)
    if kind.startswith("all"):
        rows = np.arange(graph.n)
        return rng.permutation(rows) if kind == "all-permuted" else rows
    rows = rng.choice(graph.n, 70, replace=False)
    return np.sort(rows) if kind == "sorted-subset" else rows


def n_row_engine(params, graph, op, spec):
    """(loss, gradient) of a forward over all n rows and the head on the
    spec's rows of its logits."""
    acts = mdl.forward_features(params, graph.features, op)
    return mdl.head_loss(params, acts, mdl.ce_head, spec.label_index,
                         spec.indices, spec.weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("kind", SPEC_ROWS)
@pytest.mark.parametrize("scheme", (*SCHEMES, "identity"))
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_model_objective_is_the_n_row_engine_bit_for_bit(
        graph, layers, scheme, kind, weight_decay):
    # one plan for every spec: the last layer on the sorted loss rows
    operator = oracle.filled(graph, scheme)
    spec = mdl.loss_spec_from_labels(rows_of(graph, kind), graph.labels,
                                     graph.num_classes, weight_decay)
    # hidden 6 narrows to the 4 classes on top, hidden 3 widens to them
    for hidden in (6, 3):
        dims = mdl.uniform_dims(graph.d0, hidden, graph.num_classes, layers)
        obj = optim.model_objective(dims, graph, operator, spec)
        for seed in range(2):
            w = mdl.init_params(dims, seed).flatten()
            params = mdl.ModelParams.from_flat(w, dims)
            for grad_fn, op in ((obj.gnn_grad, operator),
                                (obj.mlp_grad, IDENTITY)):
                value, grad = grad_fn(w)
                want_value, want_grad = n_row_engine(params, graph, op, spec)
                assert value == want_value
                assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_proto_episode_on_fsnc_dims_is_the_oracle_bit_for_bit(graph, layers,
                                                              scheme):
    operator = oracle.filled(graph, scheme)
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
        local = mdl.LossSpec(np.arange(spec.indices.size), spec.labels)
        want_value, want_grad = oracle.loss_grad(params, x, IDENTITY, local)
        assert value == want_value and np.array_equal(grad, want_grad)


def recorded_work(monkeypatch):
    """Spies on the forwards, on the SpMMs and on the cuts: (x rows,
    blocks) per forward, (matrix shape, stored entries, columns) per
    product and (rows, narrow) per cut."""
    forwards, products, cuts = [], [], []
    forward_features = mdl.forward_features
    apply, apply_t = PropagationOperator.apply, PropagationOperator.apply_t
    cut_slice = PropagationOperator.cut_slice

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
    monkeypatch.setattr(PropagationOperator, "cut_slice",
                        lambda op, rows, narrow: cuts.append((rows, narrow))
                        or cut_slice(op, rows, narrow))
    return forwards, products, cuts


def test_loss_row_cut_work(graph, monkeypatch):
    operator = oracle.filled(graph, "gcn-sym")
    spec = nc_spec(graph, True, 0.0)
    rows = spec.indices
    n, m, c = graph.n, rows.size, graph.num_classes
    dims = mdl.uniform_dims(graph.d0, 6, c, 2)
    forwards, products, cuts = recorded_work(monkeypatch)
    obj = optim.model_objective(dims, graph, operator, spec)
    # the objective cuts the wide slice of the loss rows once, and no
    # gradient cuts
    (cut_rows, narrow), = cuts
    assert np.array_equal(cut_rows, rows) and not narrow
    w = mdl.init_params(dims, 0).flatten()
    obj.gnn_grad(w)
    assert len(cuts) == 1
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
    operator = oracle.filled(graph, "gcn-sym")
    spec = nc_spec(graph, False, 0.0)
    dims = mdl.uniform_dims(graph.d0, 6, graph.num_classes, 2)
    forwards, products, cuts = recorded_work(monkeypatch)
    obj = optim.model_objective(dims, graph, operator, spec)
    w = mdl.init_params(dims, 0).flatten()
    obj.gnn_grad(w)
    # every node in order: the forward runs on all n rows, on A itself,
    # and nothing is cut
    (x_rows, blocks), = forwards
    assert x_rows == graph.n and blocks is None and cuts == []
    shape, nnz, c = operator.matrix.shape, operator.matrix.nnz, dims[-1]
    assert products == [("A", shape, nnz, c), ("A^T", shape, nnz, c)]
    # the PeerMLP runs on the n gathered rows, and no SpMM
    forwards.clear()
    products.clear()
    obj.mlp_grad(w)
    assert forwards == [(graph.n, None)] and products == []


@pytest.mark.parametrize("kind,layers,cuts", [
    ("narrow", 2, [True]), ("narrow", 3, [True, True]), ("top", 1, []),
    ("top", 2, [False]), ("top", 3, [False]), ("n-row", 3, []),
    ("identity", 3, [])])
def test_backward_runs_on_the_forward_blocks(graph, monkeypatch, kind,
                                             layers, cuts):
    # the blocks cut a narrow slice per layer above the first, or one wide
    # top slice for two or more layers under a real operator, over n-row
    # layers; a one-layer forward reads rows of A.X and the PeerMLP its
    # rows of the features, so neither cuts
    operator = (IDENTITY if kind == "identity"
                else oracle.filled(graph, "mean-neighbors"))
    targets = np.sort(np.random.default_rng(layers).choice(graph.n, 12,
                                                           replace=False))
    made, forward, backward = [], [], []
    cut, apply, apply_t = (PropagationOperator.cut_slice,
                           PropagationOperator.apply,
                           PropagationOperator.apply_t)
    monkeypatch.setattr(PropagationOperator, "cut_slice",
                        lambda op, rows, narrow: made.append(narrow)
                        or cut(op, rows, narrow))
    monkeypatch.setattr(PropagationOperator, "apply",
                        lambda op, x: forward.append(op) or apply(op, x))
    monkeypatch.setattr(PropagationOperator, "apply_t",
                        lambda op, x: backward.append(op) or apply_t(op, x))
    blocks = (None if kind == "n-row" else mdl.receptive_field(
        operator, targets, layers) if kind == "narrow"
        else mdl.top_blocks(operator, targets, layers))
    assert made == cuts
    if kind == "top" and layers > 1:
        assert blocks[:-1] == [(None, operator)] * (layers - 1)
    # each layer above the first makes one product in the forward and one
    # transpose product in the backward, on the same block operator, which
    # the activations record; layer 0 reads A.X and has no transpose
    params = mdl.init_params(
        mdl.uniform_dims(graph.d0, 6, graph.num_classes, layers), 0)
    acts = mdl.forward_features(params, graph.features, operator, blocks)
    rows = targets if blocks is None else np.arange(targets.size)
    spec = mdl.LossSpec(rows, np.arange(rows.size) % graph.num_classes)
    mdl.backward_from_acts(params, acts, spec)
    if blocks is None:
        assert acts.blocks == [(None, operator)] * layers
    else:
        assert acts.blocks is blocks
    ops = [b.op for b in acts.blocks[1:]]
    assert len(forward) == len(backward) == layers - 1
    assert all(a is b for a, b in zip(forward, ops))
    assert all(a is b for a, b in zip(backward, ops[::-1]))
