"""The FSNC protocol end to end against its oracles: every arm's trace,
validation and test accuracies and evaluation counts are the same, bit for
bit, when the prototypical head is `proto_head_oracle.proto_head` and
FGSAM+'s approximate step recomputes the norms of its cached gradients."""

import numpy as np
import pytest

from fgsam import fsnc, optim
from fgsam.graphcore import CsbmParams, generate_csbm
from full_graph_oracle import per_weight
from proto_head_oracle import proto_head as oracle_head


def approx_step_oracle(self, objective, w):
    """FGSAM+'s approximate step with ||g_v|| and ||g_G|| computed from the
    cached gradients on every call."""
    hp, st = self.state.hp, self.state
    value, g_mlp = objective.mlp_grad(w)
    mlp_norm = float(np.linalg.norm(g_mlp))
    gv_norm = float(np.linalg.norm(st.cached_g_v))
    gG_norm = float(np.linalg.norm(st.cached_g_G))
    flags = []
    if gG_norm > 0.0:
        g_gnn_hat = g_mlp + (mlp_norm / gG_norm) * st.cached_g_G
    else:
        g_gnn_hat = g_mlp
        flags.append("zero-gG")
    g = g_mlp
    if gv_norm > 0.0:
        g = g + hp.alpha * (mlp_norm / gv_norm) * st.cached_g_v
    else:
        flags.append("zero-gv")
    g = g + hp.lambda_topo * g_gnn_hat
    w_new = optim.adam_step(st, g, w)
    rec = optim.StepRecord(value, mlp_norm, gv_norm=gv_norm,
                           gG_norm=gG_norm, branch="approx", flags=flags)
    return w_new, rec


def oracle_pair(emb, episode, compute_grad=True):
    """The oracle head on one weight's embeddings, without its accuracy."""
    value, _, grad = oracle_head(emb, episode, compute_grad)
    return value, grad


def outcome(graph, split, arm, seed):
    """Everything of one arm's run but its wall times."""
    # the benchmark's fsnc-small protocol
    config = fsnc.ProtocolConfig(
        repeats=1, episodes=100, patience=11, val_interval=10, val_tasks=20,
        test_tasks=100, layers=2, hidden=16, scheme="mean-neighbors",
        optimizer=arm, seed=seed,
        hp=optim.Hyperparams(rho=0.05, lambda_topo=0.5, k=2))
    report = fsnc.train_protocol(config, graph, split)
    rep = report.repeats[0]
    trace = [{k: v for k, v in row.items() if k != "wall_ms"}
             for row in rep.trace]
    return (trace, rep.stop_episode, rep.best_val_acc, rep.test_acc_mean,
            rep.test_acc_std, report.test_acc_mean, report.test_acc_std,
            report.gnn_evals, report.mlp_evals)


@pytest.mark.parametrize("seed", [0, 17])
def test_protocol_bit_identical_under_oracles(monkeypatch, seed):
    # the benchmark's fsnc-small graph: 8 classes of 25 nodes
    graph = generate_csbm(CsbmParams(K=8, nodes_per_class=25, p=0.35,
                                     q=0.05, D=3.0, l=8, seed=seed))
    split = fsnc.split_classes(graph.num_classes, (4, 2, 2), seed)
    arms = optim.OPTIMIZER_NAMES
    fast = {arm: outcome(graph, split, arm, seed) for arm in arms}

    calls = {"head": 0, "approx": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # one oracle call per weight, also of FGSAM+'s stacked PeerMLP pair
    monkeypatch.setattr(fsnc, "proto_head",
                        per_weight(counted("head", oracle_pair)))
    monkeypatch.setattr(optim.FgsamPlusOptimizer, "_approx_step",
                        counted("approx", approx_step_oracle))
    slow = {arm: outcome(graph, split, arm, seed) for arm in arms}
    for arm in arms:
        assert repr(slow[arm]) == repr(fast[arm]), arm
    # every training gradient went through the oracle head, and every
    # approximate step through the oracle step
    assert calls["head"] == sum(run[-2] + run[-1] for run in slow.values())
    assert calls["approx"] == sum(row["branch"] == "approx"
                                  for row in slow["fgsam+"][0]) > 0
