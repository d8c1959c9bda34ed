import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import fsnc, gradcheck, optim
from fgsam.fsnc import (FsncError, NCConfig, ProtocolConfig, meta_test,
                        proto_episode, sample_episode, split_classes,
                        standard_nc_train, train_protocol)
from fgsam.graphcore import (CsbmParams, PropagationOperator, generate_csbm,
                             normalize)
from fgsam.seeding import stream_rng


def small_graph(seed=0, K=8, npc=20, p=0.4, q=0.05, D=3.0):
    return generate_csbm(CsbmParams(K=K, nodes_per_class=npc, p=p, q=q,
                                    D=D, l=K, seed=seed))


def small_config(**overrides):
    base = dict(way=2, shot=3, query=5, repeats=2, episodes=20, patience=3,
                val_interval=5, val_tasks=5, test_tasks=10, hidden=8,
                hp=optim.Hyperparams(rho=0.05, k=2), seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


class TestSplitClasses:
    def test_sizes_and_disjoint(self):
        s = split_classes(20, (12, 4, 4), 0)
        all_classes = np.concatenate([s.train_classes, s.val_classes,
                                      s.novel_classes])
        assert (len(s.train_classes), len(s.val_classes),
                len(s.novel_classes)) == (12, 4, 4)
        assert np.unique(all_classes).size == 20

    def test_determinism(self):
        a = split_classes(5, (3, 1, 1), 9)
        b = split_classes(5, (3, 1, 1), 9)
        assert np.array_equal(a.train_classes, b.train_classes)
        assert np.array_equal(a.novel_classes, b.novel_classes)

    def test_ratio_mismatch(self):
        with pytest.raises(FsncError):
            split_classes(20, (10, 5, 6), 0)

    def test_negative_count_rejected(self):
        # sums to 3, but would put class 0 in both train and novel
        with pytest.raises(FsncError, match="negative"):
            split_classes(3, (-1, 2, 2), 0)


class TestSampleEpisode:
    def test_counts_and_disjointness(self):
        g = small_graph()
        ep = sample_episode(g, np.arange(4), way=2, shot=3, query=2, seed=1)
        assert ep.support_idx.size == 6 and ep.query_idx.size == 4
        assert not set(ep.support_idx) & set(ep.query_idx)
        # class-major layout and label membership
        for local, c in enumerate(ep.classes):
            sup = ep.support_idx[local * 3:(local + 1) * 3]
            assert np.all(g.labels[sup] == c)
            qry = ep.query_idx[local * 2:(local + 1) * 2]
            assert np.all(g.labels[qry] == c)

    def test_property_randomized(self):
        rng = np.random.default_rng(2)
        g = small_graph()
        for _ in range(50):
            way = int(rng.integers(2, 5))
            shot = int(rng.integers(1, 4))
            query = int(rng.integers(1, 4))
            ep = sample_episode(g, np.arange(g.num_classes), way, shot, query,
                                rng=rng)
            nodes = np.concatenate([ep.support_idx, ep.query_idx])
            assert np.unique(nodes).size == nodes.size  # without replacement
            assert np.array_equal(ep.support_labels,
                                  np.repeat(np.arange(way), shot))

    def test_insufficient_classes(self):
        g = small_graph()
        with pytest.raises(FsncError):
            sample_episode(g, np.arange(2), way=3, shot=1, query=1, seed=0)

    def test_insufficient_nodes(self):
        g = small_graph(npc=3)
        with pytest.raises(FsncError):
            sample_episode(g, np.arange(4), way=2, shot=3, query=2, seed=0)

    def test_seed_determinism(self):
        g = small_graph()
        a = sample_episode(g, np.arange(5), 2, 3, 2, seed=4)
        b = sample_episode(g, np.arange(5), 2, 3, 2, seed=4)
        assert np.array_equal(a.support_idx, b.support_idx)
        assert np.array_equal(a.query_idx, b.query_idx)


class TestProtoEpisode:
    def test_single_shot_prototype_is_support_embedding(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        dims = mdl.uniform_dims(g.d0, 6, 6, 2)
        params = mdl.init_params(dims, np.random.default_rng(0))
        ep = sample_episode(g, np.arange(4), way=2, shot=1, query=2, seed=3)
        emb = mdl.forward(params, g, op).logits
        protos = emb[ep.support_idx]
        diff = emb[ep.query_idx][:, None, :] - protos[None, :, :]
        logits = -(diff * diff).sum(axis=2)
        pred = logits.argmax(axis=1)
        _, acc, _ = proto_episode(params, g, op, ep, compute_grad=False)
        assert acc == np.mean(pred == ep.query_labels)

    def test_identical_features_classified(self):
        # one class with constant features, identity operator and weights
        n = 10
        features = np.vstack([np.tile([5.0, 0.0], (5, 1)),
                              np.tile([0.0, 5.0], (5, 1))])
        from fgsam.graphcore import build_graph
        g = build_graph(n, [], features, [0] * 5 + [1] * 5)
        ident = PropagationOperator("identity", None)
        params = mdl.ModelParams([np.eye(2)], [np.zeros(2)])
        ep = sample_episode(g, np.arange(2), way=2, shot=2, query=2, seed=0)
        _, acc, _ = proto_episode(params, g, ident, ep, compute_grad=False)
        assert acc == 1.0

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_finite_difference(self, wd):
        g = small_graph(npc=6, K=4)
        op = normalize(g, "mean-neighbors")
        dims = mdl.uniform_dims(g.d0, 3, 3, 2)
        params = mdl.init_params(dims, np.random.default_rng(1))
        ep = sample_episode(g, np.arange(4), way=2, shot=2, query=2, seed=5)
        _, _, grad = proto_episode(params, g, op, ep, weight_decay=wd)

        def f(w):
            p = mdl.ModelParams.from_flat(w, dims)
            value, _, _ = proto_episode(p, g, op, ep, weight_decay=wd,
                                        compute_grad=False)
            return value

        fd = gradcheck.finite_difference(f, params.flatten())
        assert gradcheck.relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_warm_operator_bit_identical_to_fresh(self, scheme):
        # the cached A.X of a long-lived operator gives the same floats as
        # a fresh operator, call after call
        g = small_graph(K=4, npc=15)
        warm = normalize(g, scheme)
        warm.propagate_input(g.features)
        ep = sample_episode(g, np.arange(4), 2, 3, 4, seed=1)
        ep_dims = mdl.uniform_dims(g.d0, 6, 6, 2)
        nc_dims = mdl.uniform_dims(g.d0, 6, g.num_classes, 2)
        spec = mdl.loss_spec_from_labels(np.arange(0, g.n, 2), g.labels,
                                         g.num_classes, weight_decay=0.01)
        warm_obj = optim.model_objective(nc_dims, g, warm, spec)
        rng = np.random.default_rng(0)
        for _ in range(4):
            params = mdl.init_params(ep_dims, rng)
            got = proto_episode(params, g, warm, ep, weight_decay=0.01)
            want = proto_episode(params, g, normalize(g, scheme), ep,
                                 weight_decay=0.01)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])
            w = mdl.init_params(nc_dims, rng).flatten()
            value, grad = warm_obj.gnn_grad(w)
            fresh = optim.model_objective(nc_dims, g, normalize(g, scheme),
                                          spec)
            value0, grad0 = fresh.gnn_grad(w)
            assert value == value0
            assert np.array_equal(grad, grad0)
        assert warm.apply_count == 1 + 2 * 4  # A.X once, then A.H per call


class TestTrainProtocol:
    def test_no_validation_when_interval_exceeds_horizon(self):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config(episodes=5, val_interval=10, repeats=1)
        rep = train_protocol(cfg, g, split)
        r = rep.repeats[0]
        assert r.stop_episode == 5 and len(r.trace) == 5
        assert np.isnan(r.best_val_acc)

    def test_patience_one_constant_metric_stops_at_second_validation(self):
        # fully separable graph keeps validation accuracy pinned at 1.0
        g = small_graph(D=50.0, p=0.9, q=0.01)
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config(episodes=40, val_interval=5, patience=1, repeats=1)
        rep = train_protocol(cfg, g, split)
        r = rep.repeats[0]
        assert r.best_val_acc == 1.0
        assert r.stop_episode == 10

    def test_determinism(self):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config()
        a = train_protocol(cfg, g, split)
        b = train_protocol(cfg, g, split)
        assert a.test_acc_mean == b.test_acc_mean
        assert a.test_acc_std == b.test_acc_std
        for ra, rb in zip(a.repeats, b.repeats):
            assert np.array_equal(ra.final_params, rb.final_params)
            for ta, tb in zip(ra.trace, rb.trace):
                assert ta["loss"] == tb["loss"]
                assert ta["grad_norm"] == tb["grad_norm"]

    def test_sam_doubles_adam_evaluations(self):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        adam = train_protocol(small_config(optimizer="adam"), g, split)
        sam = train_protocol(small_config(optimizer="sam"), g, split)
        assert sam.gnn_evals == 2 * adam.gnn_evals

    def test_all_optimizers_run(self):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        for name in optim.OPTIMIZER_NAMES:
            rep = train_protocol(small_config(optimizer=name, episodes=8,
                                              repeats=1), g, split)
            assert 0.0 <= rep.test_acc_mean <= 1.0

    def test_non_finite_loss_stops_run(self):
        g = small_graph()
        g.features = np.full_like(g.features, np.nan)
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        with pytest.raises(FsncError, match="repeat 0 episode 0"):
            train_protocol(small_config(), g, split)

    def test_config_validation(self):
        with pytest.raises(FsncError):
            small_config(episodes=0)
        with pytest.raises(FsncError):
            small_config(way=0)


class TestMetaTest:
    def test_requires_message_passing(self):
        g = small_graph()
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        ident = PropagationOperator("identity", None)
        with pytest.raises(FsncError):
            meta_test(params, g, ident, np.arange(4), 2, 1, 1, 2, 0)

    def test_mp_counter_increments(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        before = op.apply_count
        meta_test(params, g, op, np.arange(4), 2, 1, 1, 3, 0)
        # one forward for all 3 tasks: A.X once, then A.H for layer 2
        assert op.apply_count == before + 2
        meta_test(params, g, op, np.arange(4), 2, 1, 1, 3, 1)
        # A.X is cached on the operator: a second round adds only A.H
        assert op.apply_count == before + 3

    def test_separable_reaches_perfect_accuracy(self):
        g = small_graph(D=20.0, p=0.9, q=0.01)
        op = normalize(g, "gcn-sym")
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config(episodes=10, repeats=1)
        rep = train_protocol(cfg, g, split)
        params = mdl.ModelParams.from_flat(
            rep.repeats[0].best_params, mdl.uniform_dims(g.d0, 8, 8, 2))
        mean, std = meta_test(params, g, op, split.novel_classes,
                              2, 3, 5, 20, 0)
        assert mean >= 0.99

    def test_one_forward_matches_per_task_episodes(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        classes = np.arange(4)
        shared, per_task = np.random.default_rng(5), np.random.default_rng(5)
        accs = []
        for _ in range(8):
            acc, _ = fsnc.task_accuracy(params, g, op, classes, 2, 2, 3, 1,
                                        shared)
            ep = sample_episode(g, classes, 2, 2, 3, rng=per_task)
            accs.append(proto_episode(params, g, op, ep,
                                      compute_grad=False)[1])
            assert acc == accs[-1]
        both = fsnc.task_accuracy(params, g, op, classes, 2, 2, 3, 8,
                                  np.random.default_rng(5))
        assert both == (float(np.mean(accs)), float(np.std(accs)))

    def test_reproducible(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        a = meta_test(params, g, op, np.arange(4), 2, 2, 3, 10, 7)
        b = meta_test(params, g, op, np.arange(4), 2, 2, 3, 10, 7)
        assert a == b

    def test_way_exceeds_novel_classes(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        with pytest.raises(FsncError):
            meta_test(params, g, op, np.arange(2), 3, 1, 1, 2, 0)


def nc_masks(g, seed=0):
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(g.num_classes):
        members = rng.permutation(np.flatnonzero(g.labels == c))
        k = members.size
        train.append(members[:k // 2])
        val.append(members[k // 2:3 * k // 4])
        test.append(members[3 * k // 4:])
    return (np.concatenate(train), np.concatenate(val), np.concatenate(test))


class TestStandardNC:
    def test_two_clique_perfect_accuracy(self):
        g = small_graph(K=2, npc=40, p=1.0, q=0.0, D=10.0)
        cfg = NCConfig(steps=100, patience=5, val_interval=10,
                       hidden=8, hp=optim.Hyperparams(rho=0.05), seed=0)
        rep = standard_nc_train(cfg, g, nc_masks(g))
        assert rep.test_acc == 1.0

    def test_overlapping_masks_rejected(self):
        g = small_graph(K=2, npc=10)
        masks = nc_masks(g)
        bad = (masks[0], np.concatenate([masks[1], masks[0][:1]]), masks[2])
        cfg = NCConfig(seed=0)
        with pytest.raises(FsncError):
            standard_nc_train(cfg, g, bad)

    def test_collapse_fgsam_equals_adam_on_mlp(self):
        # rho=0, lambda=0: FGSAM on the GNN matches Adam on the PeerMLP
        # (identity scheme); validation disabled so trajectories align
        g = small_graph(K=4, npc=15)
        masks = nc_masks(g)
        hp0 = optim.Hyperparams(rho=0.0, lambda_topo=0.0)
        fg = standard_nc_train(
            NCConfig(steps=15, val_interval=50, scheme="gcn-sym",
                     optimizer="fgsam", hp=hp0, seed=0), g, masks)
        ad = standard_nc_train(
            NCConfig(steps=15, val_interval=50, scheme="identity",
                     optimizer="adam", hp=hp0, seed=0), g, masks)
        assert np.array_equal(fg.final_params, ad.final_params)
        for ta, tb in zip(fg.trace, ad.trace):
            assert ta["loss"] == tb["loss"]
            assert ta["grad_norm"] == tb["grad_norm"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_stops_run(self):
        g = small_graph(K=2, npc=10)
        g.features = np.full_like(g.features, np.inf)
        with pytest.raises(FsncError, match="at step 0"):
            standard_nc_train(NCConfig(steps=5, seed=0), g, nc_masks(g))

    def test_all_optimizers_run(self):
        g = small_graph(K=3, npc=15)
        masks = nc_masks(g)
        for name in optim.OPTIMIZER_NAMES:
            cfg = NCConfig(steps=10, optimizer=name,
                           hp=optim.Hyperparams(rho=0.05, k=2), seed=0)
            rep = standard_nc_train(cfg, g, masks)
            assert 0.0 <= rep.test_acc <= 1.0


class TestReports:
    def test_train_report_round_trip(self, tmp_path):
        import json
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        rep = train_protocol(small_config(episodes=6, repeats=1), g, split)
        path = fsnc.write_train_report(rep, str(tmp_path))
        payload = json.loads(open(path).read())
        assert payload["test_acc_mean"] == rep.test_acc_mean
        assert (tmp_path / "trace_r0.csv").exists()
        header = open(tmp_path / "trace_r0.csv").readline().strip()
        assert header == ",".join(fsnc.TRACE_COLUMNS)
