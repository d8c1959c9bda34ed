"""FGSAM+'s exact step evaluates the PeerMLP at w and at w + eps in one pass
over the (2, P) weight stack (`optim.Objective.mlp_grad`). Each weight's
loss and gradient must be the bits of its own 1-D evaluation, for the
prototypical head (`fsnc.episode_objective`) and the cross-entropy head
(`optim.model_objective`), on the benchmark workloads' shapes."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import cli, fsnc, optim
from fgsam.graphcore import CsbmParams, generate_csbm, normalize

# the episodic workloads' graphs (CsbmParams but the seed) and schemes
EPISODIC = {
    "fsnc-small": ((8, 25, 0.35, 0.05, 3.0, 8), "mean-neighbors"),
    "fsnc-large": ((20, 1000, 0.015, 0.0002, 4.0, 128), "gcn-sym"),
}
# hidden widths below the output: L = 1-3, with a top layer that keeps,
# narrows or widens the width below it
HIDDEN = {"L1": [], "L2": [16], "L2-narrowing": [32], "L2-widening": [4],
          "L3": [16, 16], "L3-narrowing": [16, 32]}


@pytest.fixture(scope="module")
def graphs():
    made = {name: (generate_csbm(CsbmParams(*csbm, seed=0)), scheme)
            for name, (csbm, scheme) in EPISODIC.items()}
    made["nc-bench"] = (cli.bench_instance(0), "gcn-sym")
    return made


def weight_pair(dims, seed):
    """A weight vector with non-zero biases and the same plus a SAM-sized
    perturbation."""
    rng = np.random.default_rng(seed)
    w = mdl.init_params(dims, seed).flatten()
    w += 0.1 * rng.standard_normal(w.size)
    eps = rng.standard_normal(w.size)
    return w, w + (0.05 / np.linalg.norm(eps)) * eps


def assert_stack_is_singles(obj, weights):
    before = obj.mlp_evals
    values, grads = obj.mlp_grad(np.stack(weights))
    # one pass, counted as one PeerMLP evaluation per weight
    assert obj.mlp_evals - before == len(weights)
    assert grads.shape == (len(weights), weights[0].size)
    for w, value, grad in zip(weights, values, grads):
        want_value, want_grad = obj.mlp_grad(w)
        assert type(value) is float and type(want_value) is float
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("hidden", list(HIDDEN))
@pytest.mark.parametrize("workload", list(EPISODIC))
def test_episode_objective(graphs, workload, hidden, weight_decay):
    graph, scheme = graphs[workload]
    split = fsnc.split_classes(graph.num_classes,
                               (graph.num_classes - 4, 2, 2), 0)
    # the benchmark's 2-way 3-shot episodes with 10 queries per class
    episode = fsnc.sample_episode(graph, split.train_classes, 2, 3, 10,
                                  np.random.default_rng(1))
    dims = [graph.d0] + HIDDEN[hidden] + [16]
    obj = fsnc.episode_objective(dims, graph, normalize(graph, scheme),
                                 episode, weight_decay, blocks=None)
    assert_stack_is_singles(obj, weight_pair(dims, 2))


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("hidden", list(HIDDEN))
@pytest.mark.parametrize("workload", ["nc-bench", "fsnc-small"])
def test_model_objective(graphs, workload, hidden, weight_decay, order):
    graph, scheme = graphs[workload]
    train = np.sort(cli.make_nc_masks(graph, 0)[0])
    if order == "unsorted":
        # the head reads the logits at each row's position in the union
        train = np.random.default_rng(3).permutation(train)
    spec = mdl.loss_spec_from_labels(train, graph.labels, graph.num_classes,
                                     weight_decay)
    dims = [graph.d0] + HIDDEN[hidden] + [graph.num_classes]
    obj = optim.model_objective(dims, graph, normalize(graph, scheme), spec)
    assert_stack_is_singles(obj, weight_pair(dims, 4))


def test_all_row_spec(graphs):
    # the PeerMLP of an every-node spec reads the graph's own features
    graph, scheme = graphs["fsnc-small"]
    spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                     graph.num_classes, 0.01)
    dims = mdl.uniform_dims(graph.d0, 16, graph.num_classes, 2)
    obj = optim.model_objective(dims, graph, normalize(graph, scheme), spec)
    assert_stack_is_singles(obj, weight_pair(dims, 5))


def test_three_weights_and_one(graphs):
    # the pass serves any number of weights, one included
    graph, scheme = graphs["fsnc-small"]
    spec = mdl.loss_spec_from_labels(np.arange(0, graph.n, 3), graph.labels,
                                     graph.num_classes)
    dims = mdl.uniform_dims(graph.d0, 16, graph.num_classes, 2)
    obj = optim.model_objective(dims, graph, normalize(graph, scheme), spec)
    w, v = weight_pair(dims, 6)
    assert_stack_is_singles(obj, [w, v, 0.5 * (w + v)])
    assert_stack_is_singles(obj, [v])


def test_from_flat_stack_is_views_of_each_weight():
    dims = [3, 4, 2]
    flat = np.arange(2 * mdl.num_params(dims), dtype=float).reshape(2, -1)
    stacked = mdl.ModelParams.from_flat(flat, dims)
    assert [w.shape for w in stacked.weights] == [(2, 3, 4), (2, 4, 2)]
    assert [b.shape for b in stacked.biases] == [(2, 1, 4), (2, 1, 2)]
    assert all(np.shares_memory(a, flat)
               for a in stacked.weights + stacked.biases)
    assert np.array_equal(stacked.flatten(), flat)
    for k in range(2):
        one = mdl.ModelParams.from_flat(flat[k], dims)
        for a, b in zip(one.weights + one.biases,
                        stacked.weights + stacked.biases):
            assert np.array_equal(a, b[k])
    with pytest.raises(mdl.ModelError):
        mdl.ModelParams.from_flat(flat[:, 1:], dims)
    with pytest.raises(mdl.ModelError):
        mdl.ModelParams.from_flat(flat[None], dims)
