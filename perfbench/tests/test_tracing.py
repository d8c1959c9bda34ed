import sys

import pytest

import tracing
import workloads as wl
from tracing import Span


def spans_of(*rows):
    return [Span(sid, parent, f"s{sid}", start, end, "adam", None)
            for sid, parent, start, end in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_of((1, 0, 0.0, 10.0),    # root
                     (2, 1, 1.0, 4.0),     # child
                     (3, 2, 2.0, 3.0),     # grandchild
                     (4, 1, 5.0, 9.0))     # second child
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_self_time_counts_covered_interval_once():
    spans = spans_of((1, 0, 0.0, 10.0), (2, 1, 1.0, 5.0), (3, 1, 3.0, 7.0),
                     (4, 1, 9.0, 12.0))    # runs past its parent's end
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def bound_attributes():
    """(holder, attr) -> bound object for every traced target, in every
    fgsam module that binds it."""
    out = {}
    modules = [m for n, m in sys.modules.items()
               if n == "fgsam" or n.startswith("fgsam.")]
    for owner, attr in tracing.TARGETS:
        original = owner.__dict__[attr]
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if m.__dict__.get(attr) is original]
        for holder in holders:
            out[(holder, attr)] = holder.__dict__[attr]
    return out


TINY = {
    "nc-bench": dict(steps=2, val_interval=1),
    "fsnc-large": dict(steps=2, val_interval=1, val_tasks=1, test_tasks=1),
    "fsnc-small": dict(steps=4, val_interval=2, val_tasks=2, test_tasks=2),
}


def tiny(name):
    from dataclasses import replace
    return replace(wl.WORKLOADS[name], **TINY[name])


def test_every_wrapped_attribute_is_restored():
    before = bound_attributes()
    tracer = tracing.Tracer()
    workload = tiny("fsnc-small")
    with tracer.installed():
        assert all(holder.__dict__[attr] is not obj
                   for (holder, attr), obj in before.items())
        inputs = wl.setup(workload, 0)
        wl.run_round(workload, inputs, 0, tracer)
    assert bound_attributes() == before
    assert all(holder.__dict__[attr] is obj
               for (holder, attr), obj in before.items())
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert all(holder.__dict__[attr] is obj
               for (holder, attr), obj in before.items())


def test_traced_ledger_matches_exact_counts():
    tracer = tracing.Tracer()
    workload = tiny("fsnc-small")
    with tracer.installed():
        inputs = wl.setup(workload, 0)
        wl.run_round(workload, inputs, 0, tracer)
    m = tracing.layer_metrics(tracer.spans, wl.ARMS, wl.LAYERS)
    exact = {"adam": (1, 0), "sam": (2, 0), "fgsam": (1, 1),
             "fgsam_plus": (0.5, 1.5)}
    for arm, (gnn, mlp) in exact.items():
        assert m[f"optim.gnn_evals_per_step.{arm}"] == gnn
        assert m[f"optim.mlp_evals_per_step.{arm}"] == mlp
    # validation rounds of 2 tasks, then 2 test tasks on a validated weight
    assert m["fsnc.eval_forwards_per_weight"] == pytest.approx(3.0)
    assert m["fsnc.proto_episode.eval.calls"] == 4 * 6
    assert 0 < m["graphcore.spmm.share"] < 1
