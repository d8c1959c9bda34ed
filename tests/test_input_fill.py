"""Every entry point that runs forwards fills its operator's A.X memo
once, before its first forward, and `PropagationOperator.propagate_input`
only reads it: no optimizer step, evaluation or forward makes the
product."""

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import analysis, cli, fsnc, gradcheck, optim
from fgsam.graphcore import (CsbmParams, PropagationOperator, generate_csbm,
                             normalize)


def sparse_graph():
    """1200 nodes of mean degree about 4: an episode's receptive field is a
    small share of the graph, so a protocol run fills a compact memo."""
    return generate_csbm(CsbmParams(K=6, nodes_per_class=200, p=0.02,
                                    q=0.001, D=3.0, l=6, seed=1))


def protocol(share):
    def run(monkeypatch):
        g = sparse_graph()
        config = fsnc.ProtocolConfig(
            way=2, shot=3, query=5, repeats=2, episodes=6, val_interval=3,
            val_tasks=3, test_tasks=3, hidden=8, optimizer="fgsam+",
            hp=optim.Hyperparams(rho=0.05, k=2))
        fsnc.train_protocol(config, g, fsnc.split_classes(6, (2, 2, 2), 0),
                            share)
        return g
    return run


def standard_nc(monkeypatch):
    g = sparse_graph()
    fsnc.standard_nc_train(fsnc.NCConfig(steps=4, val_interval=2,
                                         optimizer="fgsam"),
                           g, cli.make_nc_masks(g, 0))
    return g


def bench(monkeypatch):
    g = cli.bench_instance(0)
    traces = cli.run_bench(g, 2, optim.Hyperparams(k=2))
    assert traces["adam"]["gnn_evals"] == 2
    return g


def gradient_check(check, scheme):
    def run(monkeypatch):
        made = []       # the check draws its graph
        instance = gradcheck.random_instance
        monkeypatch.setattr(gradcheck, "random_instance",
                            lambda rng: made.append(instance(rng))
                            or made[-1])
        assert check(np.random.default_rng(1), scheme, 2) is not None
        [g] = made
        return g
    return run


def landscape(monkeypatch):
    g = sparse_graph()
    params = mdl.init_params(mdl.uniform_dims(g.d0, 8, g.num_classes, 2), 0)
    spec = mdl.loss_spec_from_labels(np.arange(g.n), g.labels, g.num_classes)
    analysis.landscape_slice(params, g, normalize(g, "gcn-sym"), spec, 2,
                             [-0.5, 0.0, 0.5], seed=0)
    return g


# each runs one entry point, given pytest's monkeypatch, and returns its graph
ENTRY_POINTS = {
    "train_protocol-shared": protocol(True),
    "train_protocol-own": protocol(False),
    "standard_nc_train": standard_nc,
    "run_bench": bench,
    "check_supervised": gradient_check(gradcheck.check_supervised,
                                       "gcn-sym"),
    "check_episode": gradient_check(gradcheck.check_episode,
                                    "mean-neighbors"),
    "landscape_slice": landscape,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_fill_per_operator_outside_steps_and_forwards(monkeypatch,
                                                          entry):
    running = []        # what runs now: fill, step, evaluation, forward

    def during(owner, name, label):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            running.append(label)
            try:
                return real(*args, **kwargs)
            finally:
                running.pop()

        monkeypatch.setattr(owner, name, spy)

    fills, products = [], []
    apply = PropagationOperator.apply

    def spy_apply(op, x):
        if not op.is_identity:
            products.append((x, tuple(running)))
        return apply(op, x)

    monkeypatch.setattr(PropagationOperator, "apply", spy_apply)
    during(PropagationOperator, "fill_input", "fill")
    fill = PropagationOperator.fill_input
    monkeypatch.setattr(PropagationOperator, "fill_input",
                        lambda op, x, piece=None: fills.append((op, x))
                        or fill(op, x, piece))
    for cls in optim._OPTIMIZERS.values():
        during(cls, "step", "step")
    during(fsnc, "task_accuracy", "evaluation")
    during(mdl, "forward_features", "forward")
    g = ENTRY_POINTS[entry](monkeypatch)
    # one fill of the graph's features, on the run's one operator
    [(op, x)] = fills
    assert x is g.features and not op.is_identity
    # it makes the only A.X product, outside every step and forward; every
    # other product is a forward's
    assert [inside for x, inside in products if x is g.features] == [
        ("fill",)]
    others = [inside for x, inside in products if x is not g.features]
    assert others and all("forward" in inside for inside in others)
    assert not any("fill" in inside for inside in others)
