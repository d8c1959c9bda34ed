"""Every loss of the package is a forward plus one `model.head_loss`: each
evaluation of the supervised and episodic objectives, of `model.loss`,
`model.backward_from_acts` and `fsnc.proto_episode` runs one `head_loss`,
one head and, when it returns a gradient, one backward."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import fsnc, optim
from fgsam.graphcore import CsbmParams, generate_csbm
from full_graph_oracle import filled

WITH_GRAD = ["head_loss", "head", "backward_from_output"]
VALUE_ONLY = ["head_loss", "head"]


@pytest.fixture
def calls(monkeypatch):
    """Spies on `head_loss`, on both heads and on the backward: the name of
    each call, in call order, the heads both as "head"."""
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mdl, "head_loss", spy("head_loss", mdl.head_loss))
    monkeypatch.setattr(mdl, "backward_from_output",
                        spy("backward_from_output", mdl.backward_from_output))
    monkeypatch.setattr(mdl, "ce_head", spy("head", mdl.ce_head))
    monkeypatch.setattr(fsnc, "proto_head", spy("head", fsnc.proto_head))
    return seen


def instance():
    """A sparse 4-class CSBM, a supervised spec over half of its nodes and
    a 2-way 3-shot episode, with 2-layer dims for each."""
    graph = generate_csbm(CsbmParams(K=4, nodes_per_class=100, p=0.03,
                                     q=0.002, D=3.0, l=8, seed=0))
    operator = filled(graph, "gcn-sym")
    rows = np.arange(0, graph.n, 2)
    spec = mdl.loss_spec_from_labels(rows, graph.labels, graph.num_classes,
                                     weight_decay=0.01)
    episode = fsnc.sample_episode(graph, np.arange(4), 2, 3, 5,
                                  np.random.default_rng(0))
    nc_dims = mdl.uniform_dims(graph.d0, 6, graph.num_classes, 2)
    ep_dims = mdl.uniform_dims(graph.d0, 6, 6, 2)
    return graph, operator, spec, episode, nc_dims, ep_dims


def evaluations() -> dict:
    """Name -> (evaluation, the calls it must make)."""
    graph, operator, spec, episode, nc_dims, ep_dims = instance()
    nc_w = mdl.init_params(nc_dims, 0).flatten()
    ep_w = mdl.init_params(ep_dims, 0).flatten()
    nc_params = mdl.ModelParams.from_flat(nc_w, nc_dims)
    ep_params = mdl.ModelParams.from_flat(ep_w, ep_dims)
    supervised = optim.model_objective(nc_dims, graph, operator, spec)
    blocks = mdl.blocks_for(operator, episode.rows, 2)
    assert blocks is not None
    episodic = fsnc.episode_objective(ep_dims, graph, operator, episode,
                                      weight_decay=0.01, blocks=blocks)
    acts = mdl.forward(nc_params, graph, operator)
    return {
        "model_objective-gnn": (lambda: supervised.gnn_grad(nc_w), WITH_GRAD),
        "model_objective-mlp": (lambda: supervised.mlp_grad(nc_w), WITH_GRAD),
        "episode_objective-gnn": (lambda: episodic.gnn_grad(ep_w),
                                  WITH_GRAD),
        "episode_objective-mlp": (lambda: episodic.mlp_grad(ep_w),
                                  WITH_GRAD),
        "loss": (lambda: mdl.loss(acts, spec, nc_params), VALUE_ONLY),
        "backward_from_acts": (lambda: mdl.backward_from_acts(
            nc_params, acts, spec), WITH_GRAD),
        "proto_episode-grad": (lambda: fsnc.proto_episode(
            ep_params, graph, operator, episode, 0.01), WITH_GRAD),
        "proto_episode-value": (lambda: fsnc.proto_episode(
            ep_params, graph, operator, episode, 0.01, compute_grad=False),
            VALUE_ONLY),
        "proto_episode-blocks": (lambda: fsnc.proto_episode(
            ep_params, graph, operator, episode, 0.01, blocks=blocks),
            WITH_GRAD),
    }


@pytest.mark.parametrize("name", [
    "model_objective-gnn", "model_objective-mlp", "episode_objective-gnn",
    "episode_objective-mlp", "loss", "backward_from_acts",
    "proto_episode-grad", "proto_episode-value", "proto_episode-blocks"])
def test_one_head_loss_and_one_head_per_evaluation(calls, name):
    evaluate, want = evaluations()[name]
    for _ in range(2):
        calls.clear()
        evaluate()
        assert calls == want
