"""The benchmark tracer rebinds `(owner, attribute)` pairs of the fgsam
modules by name and reads the arguments of the calls it wraps. Each pair
must be an attribute defined on its owner, and a traced protocol round must
still give finite per-layer metrics, so a deletion, rename or signature
change under `src/fgsam` that would break a traced benchmark run fails
here."""

import importlib.util
import math
import os

import pytest

from fgsam import cli, fsnc, optim
from fgsam.graphcore import CsbmParams, generate_csbm, normalize

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_defined_on_its_owner(tracing):
    assert tracing.TARGETS
    missing = [tracing.span_name(owner, attr)
               for owner, attr in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []


def test_traced_fsnc_round_gives_finite_layer_metrics(tracing):
    # sparse enough that episodes and evaluation rounds run on blocks
    graph = generate_csbm(CsbmParams(K=6, nodes_per_class=200, p=0.02,
                                     q=0.001, D=3.0, l=8, seed=0))
    split = fsnc.split_classes(6, (2, 2, 2), 0)
    arms = optim.OPTIMIZER_NAMES
    tracer = tracing.Tracer()
    with tracer.installed():
        for arm in arms:
            config = fsnc.ProtocolConfig(
                repeats=1, episodes=4, val_interval=2, patience=3,
                val_tasks=2, test_tasks=2, hidden=4, optimizer=arm,
                hp=optim.Hyperparams(rho=0.05, lambda_topo=0.5, k=2))
            tracer.arm = arm
            with tracer.span("bench.arm"):
                fsnc.train_protocol(config, graph, split)
            tracer.arm = None
    spmm = [s for s in tracer.spans if s.name == tracing.SPMM]
    assert spmm and any(s.name == tracing.SPMM_T for s in tracer.spans)
    # block products are traced with the block's own stored entries
    full_nnz = normalize(graph, "gcn-sym").matrix.nnz
    assert min(s.attrs[0] for s in spmm) < full_nnz
    # the training forwards and backwards run under the traced names that
    # the per-layer figures read
    names = {s.name for s in tracer.spans}
    assert {"fsnc.proto_episode.train", tracing.FORWARD,
            tracing.FORWARD_FEATURES, "model.backward_from_output"} <= names
    metrics = tracing.layer_metrics(tracer.spans, arms, 2)
    assert metrics["graphcore.spmm.calls"] > 0
    assert metrics["model.forward.calls"] > 0
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert bad == {}


def test_traced_nc_gradient_runs_forward_and_backward_spans(tracing):
    graph = generate_csbm(CsbmParams(K=3, nodes_per_class=20, p=0.2, q=0.02,
                                     D=3.0, l=8, seed=0))
    config = fsnc.NCConfig(steps=2, hidden=4)
    tracer = tracing.Tracer()
    with tracer.installed():
        fsnc.standard_nc_train(config, graph, cli.make_nc_masks(graph, 0))
    by_id = {s.sid: s for s in tracer.spans}

    def under_gnn_grad(span):
        while span.parent in by_id:
            span = by_id[span.parent]
            if span.name == tracing.GNN_GRAD:
                return True
        return False

    names = {s.name for s in tracer.spans if under_gnn_grad(s)}
    assert {tracing.FORWARD_FEATURES, "model.backward_from_output"} <= names
