import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import fgsam.model as mdl
from fgsam import cli, fsnc, gradcheck, optim
from fgsam.fsnc import (FsncError, NCConfig, ProtocolConfig, proto_episode,
                        sample_episode, split_classes, standard_nc_train,
                        task_accuracy, train_protocol)
from fgsam.graphcore import (CsbmParams, PropagationOperator, build_graph,
                             generate_csbm, normalize)
from fgsam.seeding import stream_rng
from proto_head_oracle import proto_head as oracle_head
import round_oracle


def small_graph(seed=0, K=8, npc=20, p=0.4, q=0.05, D=3.0):
    return generate_csbm(CsbmParams(K=K, nodes_per_class=npc, p=p, q=q,
                                    D=D, l=K, seed=seed))


def small_config(**overrides):
    base = dict(way=2, shot=3, query=5, repeats=2, episodes=20, patience=3,
                val_interval=5, val_tasks=5, test_tasks=10, hidden=8,
                hp=optim.Hyperparams(rho=0.05, k=2), seed=0)
    base.update(overrides)
    return ProtocolConfig(**base)


def one_task_round(ep):
    """The episode as a one-task round, in `draw_round`'s layout."""
    return fsnc.Episode(ep.way, ep.shot, ep.query_per_class,
                        ep.classes[None], ep.support_idx[None],
                        ep.query_idx[None])


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
        ep = sample_episode(g, np.arange(4), way=2, shot=3, query=2,
                            rng=np.random.default_rng(1))
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
            # class-major support: `shot` nodes of each chosen class
            assert np.array_equal(g.labels[ep.support_idx],
                                  np.repeat(ep.classes, shot))

    def test_insufficient_classes(self):
        g = small_graph()
        with pytest.raises(FsncError):
            sample_episode(g, np.arange(2), way=3, shot=1, query=1,
                           rng=np.random.default_rng(0))

    def test_insufficient_nodes(self):
        g = small_graph(npc=3)
        with pytest.raises(FsncError):
            sample_episode(g, np.arange(4), way=2, shot=3, query=2,
                           rng=np.random.default_rng(0))

    def test_seed_determinism(self):
        g = small_graph()
        a = sample_episode(g, np.arange(5), 2, 3, 2,
                           rng=np.random.default_rng(4))
        b = sample_episode(g, np.arange(5), 2, 3, 2,
                           rng=np.random.default_rng(4))
        assert np.array_equal(a.support_idx, b.support_idx)
        assert np.array_equal(a.query_idx, b.query_idx)

    def test_class_pools_match_rescan_oracle(self):
        def rescan(graph, classes, way, shot, query, rng):
            # the sampler before per-class pools: scan the labels per class
            chosen = rng.choice(classes, size=way, replace=False)
            picked = [rng.choice(np.flatnonzero(graph.labels == c),
                                 size=shot + query, replace=False)
                      for c in chosen]
            return (chosen, np.concatenate([p[:shot] for p in picked]),
                    np.concatenate([p[shot:] for p in picked]))

        g = small_graph(npc=15)
        ours, oracle = np.random.default_rng(8), np.random.default_rng(8)
        for i in range(200):
            way, shot, query = 2 + i % 3, 1 + i % 4, 1 + i % 5
            ep = sample_episode(g, np.arange(1, 8), way, shot, query,
                                rng=ours)
            chosen, support, qry = rescan(g, np.arange(1, 8), way, shot,
                                          query, oracle)
            assert np.array_equal(ep.classes, chosen)
            assert np.array_equal(ep.support_idx, support)
            assert np.array_equal(ep.query_idx, qry)

    def test_rows_and_labels_computed_once(self):
        g = small_graph()
        ep = sample_episode(g, np.arange(4), 2, 3, 2,
                            rng=np.random.default_rng(0))
        assert ep.rows is ep.rows and ep.query_labels is ep.query_labels
        assert np.array_equal(ep.rows, np.concatenate([ep.support_idx,
                                                       ep.query_idx]))
        assert np.array_equal(ep.query_labels, [0, 0, 1, 1])
        for array in (ep.rows, ep.query_labels):
            with pytest.raises(ValueError):
                array[0] = 1
        # frozen, so the cached rows cannot go stale
        with pytest.raises(dataclasses.FrozenInstanceError):
            ep.query_idx = ep.support_idx

    @pytest.mark.parametrize("way, query", [(2, 2), (3, 1), (5, 4)])
    def test_label_index_read_only_flat_true_class_index(self, way, query):
        ep = sample_episode(small_graph(), np.arange(8), way, 1, query,
                            rng=np.random.default_rng(way))
        m = way * query
        assert ep.label_index is ep.label_index
        assert np.array_equal(ep.label_index,
                              np.arange(m) * way + ep.query_labels)
        # the true-class logit of each query in a C-ordered (m, way) array
        logits = np.arange(m * way).reshape(m, way)
        assert np.array_equal(logits.ravel()[ep.label_index],
                              logits[np.arange(m), ep.query_labels])
        with pytest.raises(ValueError):
            ep.label_index[0] = 1

    def test_class_without_nodes(self):
        g = small_graph(K=4, npc=5)
        with pytest.raises(FsncError, match="class 9 has 0 nodes"):
            sample_episode(g, np.array([0, 9]), 2, 1, 1,
                           rng=np.random.default_rng(0))


class TestProtoEpisode:
    def test_single_shot_prototype_is_support_embedding(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        dims = mdl.uniform_dims(g.d0, 6, 6, 2)
        params = mdl.init_params(dims, np.random.default_rng(0))
        ep = sample_episode(g, np.arange(4), way=2, shot=1, query=2,
                            rng=np.random.default_rng(3))
        emb = mdl.forward(params, g, op).logits
        protos = emb[ep.support_idx]
        diff = emb[ep.query_idx][:, None, :] - protos[None, :, :]
        logits = -(diff * diff).sum(axis=2)
        pred = logits.argmax(axis=1)
        acc, _ = task_accuracy(params, g, op, one_task_round(ep), None)
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
        ep = sample_episode(g, np.arange(2), way=2, shot=2, query=2,
                            rng=np.random.default_rng(0))
        acc, _ = task_accuracy(params, g, ident, one_task_round(ep), None)
        assert acc == 1.0

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_flattens_only_for_weight_decay(self, monkeypatch, wd):
        g = small_graph(npc=6, K=4)
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 3, 3, 2),
                                 np.random.default_rng(1))
        ep = sample_episode(g, np.arange(4), way=2, shot=2, query=2,
                            rng=np.random.default_rng(5))
        flatten, calls = mdl.ModelParams.flatten, []

        def spy(self):
            calls.append(self)
            return flatten(self)

        monkeypatch.setattr(mdl.ModelParams, "flatten", spy)
        for compute_grad in (True, False):
            proto_episode(params, g, op, ep, weight_decay=wd,
                          compute_grad=compute_grad)
        assert len(calls) == (2 if wd else 0)

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_finite_difference(self, wd):
        g = small_graph(npc=6, K=4)
        op = normalize(g, "mean-neighbors")
        dims = mdl.uniform_dims(g.d0, 3, 3, 2)
        params = mdl.init_params(dims, np.random.default_rng(1))
        ep = sample_episode(g, np.arange(4), way=2, shot=2, query=2,
                            rng=np.random.default_rng(5))
        _, grad = proto_episode(params, g, op, ep, weight_decay=wd)

        def f(w):
            p = mdl.ModelParams.from_flat(w, dims)
            value, _ = proto_episode(p, g, op, ep, weight_decay=wd,
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
        ep = sample_episode(g, np.arange(4), 2, 3, 4,
                            rng=np.random.default_rng(1))
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
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            w = mdl.init_params(nc_dims, rng).flatten()
            value, grad = warm_obj.gnn_grad(w)
            fresh = optim.model_objective(nc_dims, g, normalize(g, scheme),
                                          spec)
            value0, grad0 = fresh.gnn_grad(w)
            assert value == value0
            assert np.array_equal(grad, grad0)
        assert warm.apply_count == 1 + 2 * 4  # A.X once, then A.H per call


def sparse_graph(seed=1):
    """1200 nodes of mean degree about 4: an episode's receptive field is a
    small share of the graph, so `blocks_for` slices."""
    return small_graph(seed=seed, K=6, npc=200, p=0.02, q=0.001)


def relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# sliced and full-graph products sum in different orders
REL_TOL = 1e-12


class TestReceptiveField:
    """The episode engine on the rows of its receptive field, against the
    same engine on all n rows (the full-graph oracle)."""

    def assert_matches_oracle(self, params, g, op, ep, blocks):
        want = proto_episode(params, g, op, ep, weight_decay=0.01)
        got = proto_episode(params, g, op, ep, weight_decay=0.01,
                            blocks=blocks)
        assert abs(got[0] - want[0]) <= REL_TOL * abs(want[0])
        assert relative(got[1], want[1]) <= REL_TOL
        # the episode as a one-task round, scored on its receptive field
        tasks = one_task_round(ep)
        union = mdl.receptive_field(op, np.unique(ep.rows), len(blocks))
        assert (task_accuracy(params, g, op, tasks, union)
                == task_accuracy(params, g, op, tasks, None))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("scheme",
                             ["gcn-sym", "mean-neighbors", "identity"])
    def test_matches_full_graph_oracle(self, scheme, layers):
        g = sparse_graph()
        op = normalize(g, scheme)
        dims = mdl.uniform_dims(g.d0, 6, 6, layers)
        rng = np.random.default_rng(layers)
        for _ in range(3):
            ep = sample_episode(g, np.arange(6), 2, 3, 10, rng=rng)
            blocks = mdl.blocks_for(op, ep.rows, layers)
            assert blocks is not None
            assert [b.rows.size for b in blocks][-1] == 26
            self.assert_matches_oracle(mdl.init_params(dims, rng), g, op, ep,
                                       blocks)

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_isolated_target_node(self, scheme):
        g = sparse_graph()
        ep = sample_episode(g, np.arange(6), 2, 2, 3,
                            rng=np.random.default_rng(0))
        lonely = np.setdiff1d(np.flatnonzero(g.degrees() == 0), ep.rows)
        assert lonely.size
        query_idx = ep.query_idx.copy()
        query_idx[0] = lonely[0]       # an isolated node of any class
        ep = dataclasses.replace(ep, query_idx=query_idx)
        op = normalize(g, scheme)
        dims = mdl.uniform_dims(g.d0, 5, 5, 3)
        blocks = mdl.receptive_field(op, ep.rows, 3)
        # the node reads only itself at every layer
        assert lonely[0] in blocks[0].rows
        self.assert_matches_oracle(
            mdl.init_params(dims, np.random.default_rng(1)), g, op, ep,
            blocks)

    def test_receptive_field_is_whole_graph(self):
        g = small_graph(K=4, npc=10, p=0.5, q=0.1)
        op = normalize(g, "gcn-sym")
        ep = sample_episode(g, np.arange(4), 2, 2, 3,
                            rng=np.random.default_rng(2))
        blocks = mdl.receptive_field(op, ep.rows, 3)
        assert np.array_equal(blocks[0].rows, np.arange(g.n))
        dims = mdl.uniform_dims(g.d0, 5, 5, 3)
        self.assert_matches_oracle(
            mdl.init_params(dims, np.random.default_rng(3)), g, op, ep,
            blocks)
        # slicing would not shrink the work: the cutover keeps all rows
        assert mdl.blocks_for(op, ep.rows, 3) is None

    @pytest.mark.parametrize("dense", [False, True])
    def test_cutover_sides_match_oracle(self, dense):
        g = small_graph() if dense else sparse_graph()
        op = normalize(g, "mean-neighbors")
        ep = sample_episode(g, np.arange(4), 2, 3, 10,
                            rng=np.random.default_rng(4))
        assert (op.row_nnz(ep.rows) >= g.n) == dense
        assert (mdl.blocks_for(op, ep.rows, 2) is None) == dense
        # the PeerMLP reads only the episode's rows, whatever the graph
        ident = PropagationOperator("identity", None)
        mlp = mdl.blocks_for(ident, ep.rows, 2)
        assert all(np.array_equal(b.rows, ep.rows) for b in mlp)
        dims = mdl.uniform_dims(g.d0, 6, 6, 2)
        obj = fsnc.episode_objective(dims, g, op, ep, weight_decay=0.01,
                                     blocks=mdl.blocks_for(op, ep.rows, 2))
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = mdl.init_params(dims, rng)
            w = params.flatten()
            for got, o in ((obj.gnn_grad(w), op), (obj.mlp_grad(w), ident)):
                want = proto_episode(params, g, o, ep, weight_decay=0.01)
                assert abs(got[0] - want[0]) <= REL_TOL * abs(want[0])
                assert relative(got[1], want[1]) <= REL_TOL

    def test_blocks_cut_once_per_operator(self, monkeypatch):
        g = sparse_graph()
        op = normalize(g, "gcn-sym")
        ep = sample_episode(g, np.arange(6), 2, 3, 10,
                            rng=np.random.default_rng(6))
        blocks = mdl.blocks_for(op, ep.rows, 2)
        calls = []
        real = mdl.blocks_for
        monkeypatch.setattr(mdl, "blocks_for",
                            lambda *a: calls.append(a[0]) or real(*a))
        dims = mdl.uniform_dims(g.d0, 4, 4, 2)
        obj = fsnc.episode_objective(dims, g, op, ep, blocks=blocks)
        assert calls == []               # cut inside the first evaluation
        w = mdl.init_params(dims, np.random.default_rng(0)).flatten()
        for _ in range(3):
            obj.gnn_grad(w)
            obj.mlp_grad(w)
        # the GNN's blocks are the ones handed over; the PeerMLP's are cut
        assert len(calls) == 1 and calls[0].is_identity

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_full_path_bit_identical_to_scatter_oracle(self, scheme):
        # on all n rows the head's gradient goes back through an n-row
        # array; it must hold the same bits as the scatter-add it replaced
        g = small_graph()
        op = normalize(g, scheme)
        dims = mdl.uniform_dims(g.d0, 6, 6, 2)
        params = mdl.init_params(dims, np.random.default_rng(7))
        ep = sample_episode(g, np.arange(4), 2, 3, 4,
                            rng=np.random.default_rng(8))
        acts = mdl.forward(params, g, op)
        value, d = fsnc.proto_head(acts.logits[ep.rows], ep)
        d_emb = np.zeros_like(acts.logits)
        ns = ep.support_idx.size
        np.add.at(d_emb, ep.query_idx, d[ns:])
        np.add.at(d_emb, ep.support_idx, d[:ns])
        want = mdl.backward_from_output(params, op, acts, d_emb)
        got = proto_episode(params, g, op, ep)
        assert got[0] == value
        assert got[1].tobytes() == want.tobytes()

    def test_head_bit_identical_to_oracle(self):
        rng = np.random.default_rng(12)
        heads = 0
        seen, wide = set(), set()
        # ways up to 10 and widths up to 40: past 8 terms numpy sums
        # pairwise, in blocks, so the order of every reduction shows
        for i in range(320):
            way = 2 if i % 3 == 0 else int(rng.integers(3, 11))
            shot = 1 if i % 2 == 0 else int(rng.integers(2, 6))
            query = int(rng.integers(1, 7))
            ns, nq = way * shot, way * query
            ep = fsnc.Episode(way, shot, query, np.arange(way),
                              np.arange(ns), np.arange(ns, ns + nq))
            scale = 10.0 ** rng.uniform(-2, 2)
            width = int(rng.integers(1, 41))
            emb = scale * rng.standard_normal((ns + nq, width))
            for grad in (True, False):
                got, want = fsnc.proto_head(emb, ep, grad), oracle_head(
                    emb, ep, grad)
                assert got[0] == want[0]
                if grad:
                    assert got[1].tobytes() == want[2].tobytes()
                else:
                    assert got[1] is None and want[2] is None
            heads += 1
            seen.add((way == 2, shot == 1))
            wide.add((way >= 7, width > 16))
        assert heads >= 300 and seen == {(True, True), (True, False),
                                         (False, True), (False, False)}
        assert (True, True) in wide

    def test_head_reads_only_episode_rows(self):
        g = small_graph()
        ep = sample_episode(g, np.arange(4), 2, 3, 4,
                            rng=np.random.default_rng(9))
        emb = np.random.default_rng(0).standard_normal((ep.rows.size, 5))
        _, d = fsnc.proto_head(emb, ep)
        assert d.shape == emb.shape


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
            assert np.array_equal(ra.best_params, rb.best_params)
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

    def test_run_leaves_no_dense_propagation_on_the_graph(self, monkeypatch):
        # the A.X a run fills belongs to its operator's memo and is freed
        # with it: on a sparse graph only the rows it reads (row-to-slot map
        # and row buffer), on a dense one the full product. The graph keeps
        # only its sparse matrix, here smaller than the features
        sparse = generate_csbm(CsbmParams(K=6, nodes_per_class=200, p=0.02,
                                          q=0.001, D=3.0, l=32, seed=1))
        # the benchmark's fsnc-small graph with wider features
        dense = generate_csbm(CsbmParams(K=8, nodes_per_class=25, p=0.35,
                                         q=0.05, D=3.0, l=64, seed=0))
        propagate = PropagationOperator.propagate_input
        for g, ratio in ((sparse, (2, 2, 2)), (dense, (4, 2, 2))):
            filled = []

            def spy(op, x, rows=None):
                out = propagate(op, x, rows)
                if not op.is_identity:
                    _, full, slot, buffer = op._input_memo
                    # a sparse graph fills rows only, a dense one all of A.X
                    assert (full is None) == (g is sparse)
                    kept = (slot, buffer) if full is None else (full,)
                    filled.extend(weakref.ref(a) for a in kept)
                return out

            monkeypatch.setattr(PropagationOperator, "propagate_input", spy)
            split = split_classes(g.num_classes, ratio, 0)
            train_protocol(small_config(repeats=1, episodes=4,
                                        val_interval=2), g, split)
            gc.collect()
            assert filled and all(ref() is None for ref in filled)
            fields = {"n", "features", "edges", "labels", "num_classes"}
            assert set(vars(g)) - fields == {"_matrices", "class_nodes"}
            assert list(g._matrices) == ["gcn-sym"]
            for mat in g._matrices.values():
                assert sp.isspmatrix_csr(mat)
                assert (mat.data.nbytes + mat.indices.nbytes
                        + mat.indptr.nbytes < g.features.nbytes)
            assert all(pool.ndim == 1 for pool in g.class_nodes)


class TestPlan:
    """Each repeat of `train_protocol` draws its tasks and fills the
    layer-0 rows they read before its first step; a task's blocks are cut
    when it is used, outside the optimizer step."""

    @staticmethod
    def spy_steps(monkeypatch):
        """A one-element list that holds True while an optimizer step
        runs."""
        in_step = [False]

        def wrap(step):
            def traced(self, obj, w):
                in_step[0] = True
                try:
                    return step(self, obj, w)
                finally:
                    in_step[0] = False
            return traced

        for cls in (optim.AdamOptimizer, optim.SamOptimizer,
                    optim.FgsamOptimizer, optim.FgsamPlusOptimizer):
            monkeypatch.setattr(cls, "step", wrap(cls.step))
        return in_step

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_sparse_run_fills_planned_rows_outside_steps(self, monkeypatch,
                                                         name):
        g = sparse_graph()
        in_step = self.spy_steps(monkeypatch)
        products, cuts, plans = [], [], []
        apply, restrict, plan = (PropagationOperator.apply,
                                 PropagationOperator.restrict, fsnc._plan)

        def spy_apply(op, x):
            if not op.is_identity:
                products.append((op.matrix.shape[0], x is g.features,
                                 in_step[0]))
            return apply(op, x)

        def spy_restrict(op, rows):
            cuts.append((op.is_identity, in_step[0]))
            return restrict(op, rows)

        def spy_plan(config, graph, split, operator, root):
            before = len(cuts)
            out = plan(config, graph, split, operator, root)
            # one receptive-field walk over all the repeat's rows
            assert len(cuts) - before == config.layers - 1
            episodes, val_rounds, test_round = out
            read = [mdl.blocks_for(operator, rows, config.layers)[0].rows
                    for rows in [e.rows for e in episodes]
                    + [np.unique(t.rows) for t in val_rounds + [test_round]]]
            _, full, slot, buffer = operator._input_memo
            plans.append((np.concatenate(read), full, slot.copy(),
                          buffer.shape))
            return out

        monkeypatch.setattr(PropagationOperator, "apply", spy_apply)
        monkeypatch.setattr(PropagationOperator, "restrict", spy_restrict)
        monkeypatch.setattr(fsnc, "_plan", spy_plan)
        split = split_classes(g.num_classes, (2, 2, 2), 0)
        cfg = small_config(optimizer=name, repeats=2, episodes=6,
                           val_interval=3, query=10)
        train_protocol(cfg, g, split)
        # no product over all n rows, A.X included
        assert products and max(rows for rows, _, _ in products) < g.n
        # A.X rows are filled by the plans only: the second repeat fills
        # the rows the first left missing
        fills = [p for p in products if p[1]]
        assert len(fills) == 2 and not any(p[2] for p in fills)
        # blocks of the graph's operator are cut by the plan and at each
        # use, never inside a step; the PeerMLP's identity blocks are the
        # episode's rows, with nothing to cut
        assert any(not identity for identity, _ in cuts)
        assert not any(step for identity, step in cuts if not identity)
        # each plan leaves exactly the rows read so far filled
        read = np.zeros(0, dtype=np.int64)
        for rows, full, slot, shape in plans:
            read = np.union1d(read, rows)
            assert full is None
            assert np.array_equal(np.flatnonzero(slot >= 0), read)
            assert shape == (read.size, g.d0)
        assert read.size < g.n

    def test_dense_graph_fills_the_full_product(self, monkeypatch):
        # the benchmark's fsnc-small graph: every episode's receptive field
        # is a large share of the graph, so the plan fills all of A.X
        g = generate_csbm(CsbmParams(K=8, nodes_per_class=25, p=0.35,
                                     q=0.05, D=3.0, l=8, seed=0))
        in_step = self.spy_steps(monkeypatch)
        fills = []
        apply = PropagationOperator.apply

        def spy_apply(op, x):
            if x is g.features:
                fills.append((op.matrix.shape[0], in_step[0]))
            return apply(op, x)

        monkeypatch.setattr(PropagationOperator, "apply", spy_apply)
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config(scheme="mean-neighbors", query=10, episodes=10,
                           val_interval=5)
        train_protocol(cfg, g, split)
        assert fills == [(g.n, False)]

    def test_tasks_are_the_streams_draws(self):
        # drawn up front, the tasks are those drawn one by one as used
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        cfg = small_config(episodes=7, val_interval=3, val_tasks=4,
                           test_tasks=5)
        op = normalize(g, "gcn-sym")
        episodes, val_rounds, test_round = fsnc._plan(cfg, g, split, op, 11)
        ep_rng, val_rng = stream_rng(11, "episodes"), stream_rng(11, "val")
        test_rng = stream_rng(11, "test")
        draw = round_oracle.draw_tasks
        want = (draw(g, split.train_classes, 2, 3, 5, 7, ep_rng)
                + draw(g, split.val_classes, 2, 3, 5, 2 * 4, val_rng)
                + draw(g, split.novel_classes, 2, 3, 5, 5, test_rng))
        assert [len(tasks.rows) for tasks in val_rounds] == [4, 4]
        got = [(e.classes, e.rows) for e in episodes] + [
            task for tasks in val_rounds + [test_round]
            for task in zip(tasks.classes, tasks.rows)]
        assert len(got) == len(want)
        for (classes, rows), theirs in zip(got, want):
            assert np.array_equal(rows, theirs.rows)
            assert np.array_equal(classes, theirs.classes)


def oracle_accuracy(params, g, op, ep):
    """The oracle head's accuracy on the episode's rows of a forward over
    all n rows."""
    emb = mdl.forward(params, g, op).logits[ep.rows]
    return oracle_head(emb, ep, compute_grad=False)[1]


def round_accuracy(params, g, op, tasks):
    """`task_accuracy` of a round with its union's blocks, cut as the
    protocol cuts them."""
    return task_accuracy(params, g, op, tasks, mdl.blocks_for(
        op, np.unique(tasks.rows), params.num_layers))


class TestMetaTest:
    """`task_accuracy`, the evaluation of validation and meta-test rounds."""

    def test_mp_counter_increments(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        before = op.apply_count
        round_accuracy(params, g, op, fsnc.draw_round(
            g, np.arange(4), 2, 1, 1, 3, np.random.default_rng(0)))
        # one forward for all 3 tasks: A.X once, then A.H for layer 2
        assert op.apply_count == before + 2
        round_accuracy(params, g, op, fsnc.draw_round(
            g, np.arange(4), 2, 1, 1, 3, np.random.default_rng(1)))
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
        mean, std = round_accuracy(params, g, op, fsnc.draw_round(
            g, split.novel_classes, 2, 3, 5, 20, np.random.default_rng(0)))
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
            acc, _ = round_accuracy(params, g, op, fsnc.draw_round(
                g, classes, 2, 2, 3, 1, shared))
            ep = sample_episode(g, classes, 2, 2, 3, rng=per_task)
            accs.append(oracle_accuracy(params, g, op, ep))
            assert acc == accs[-1]
        both = round_accuracy(params, g, op, fsnc.draw_round(
            g, classes, 2, 2, 3, 8, np.random.default_rng(5)))
        assert both == (float(np.mean(accs)), float(np.std(accs)))

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_sliced_round_matches_per_task_episodes(self, scheme):
        g = sparse_graph()
        op = normalize(g, scheme)
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        classes = np.arange(6)
        accs, rows = [], []
        per_task = np.random.default_rng(3)
        for _ in range(6):
            ep = sample_episode(g, classes, 2, 3, 10, rng=per_task)
            accs.append(oracle_accuracy(params, g, op, ep))
            rows.append(ep.rows)
        union = np.unique(np.concatenate(rows))
        tasks = fsnc.draw_round(g, classes, 2, 3, 10, 6,
                                np.random.default_rng(3))
        assert np.array_equal(np.unique(tasks.rows), union)
        blocks = mdl.blocks_for(op, union, 2)
        assert blocks is not None
        before = op.apply_count
        want = (float(np.mean(accs)), float(np.std(accs)))
        assert task_accuracy(params, g, op, tasks, blocks) == want
        assert op.apply_count == before + 1  # one sliced forward

    def test_reproducible(self):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        a, b = (round_accuracy(params, g, op, fsnc.draw_round(
            g, np.arange(4), 2, 2, 3, 10, np.random.default_rng(7)))
            for _ in range(2))
        assert a == b

    def test_way_exceeds_novel_classes(self, monkeypatch):
        # the test round is drawn with the rest of the plan, so a split
        # that cannot give it fails before the first step
        g = small_graph()
        split = split_classes(g.num_classes, (4, 3, 1), 0)
        steps = []
        monkeypatch.setattr(fsnc, "episode_objective",
                            lambda *a, **k: steps.append(a))
        with pytest.raises(FsncError, match="need 2 classes, only 1"):
            train_protocol(small_config(way=2), g, split)
        assert steps == []


def uneven_graph():
    """Classes 0-3 of 10 nodes each and class 4 of 3 nodes."""
    labels = np.repeat(np.arange(5), [10, 10, 10, 10, 3])
    features = np.random.default_rng(0).standard_normal((labels.size, 2))
    return build_graph(labels.size, [], features, labels)


class TestDrawRound:
    """`draw_round` against tasks drawn one at a time: the draws of the
    per-task sampler (`round_oracle`) and of `sample_episode`."""

    @pytest.mark.parametrize("way,shot,query,tasks", [
        (2, 1, 1, 1), (2, 3, 5, 7), (3, 1, 4, 20), (4, 2, 2, 3)])
    def test_same_draws_and_stream(self, way, shot, query, tasks):
        g = small_graph()
        classes = np.arange(1, 8)
        mine, oracle, single = (np.random.default_rng(21) for _ in range(3))
        got = fsnc.draw_round(g, classes, way, shot, query, tasks, mine)
        assert got.rows.shape == (tasks, way * (shot + query))
        assert got.classes.shape == (tasks, way)
        want = round_oracle.draw_tasks(g, classes, way, shot, query, tasks,
                                       oracle)
        singles = [sample_episode(g, classes, way, shot, query, single)
                   for _ in range(tasks)]
        for t in range(tasks):
            for ep in (want[t], singles[t]):
                assert np.array_equal(got.classes[t], ep.classes)
                assert np.array_equal(got.support_idx[t], ep.support_idx)
                assert np.array_equal(got.query_idx[t], ep.query_idx)
                assert np.array_equal(got.rows[t], ep.rows)
        assert np.array_equal(g.labels[got.query_idx],
                              got.classes[:, got.query_labels])
        # the streams stand at the same state: the next draws are equal
        assert (mine.bit_generator.state == oracle.bit_generator.state
                == single.bit_generator.state)
        nxt = [fsnc.draw_round(g, classes, way, shot, query, 3, rng).rows
               for rng in (mine, oracle, single)]
        assert np.array_equal(nxt[0], nxt[1])
        assert np.array_equal(nxt[0], nxt[2])

    @pytest.mark.parametrize("classes,way,message", [
        (np.arange(2), 3, "need 3 classes, only 2 available"),
        (np.arange(5), 2, "class 4 has 3 nodes, needs 4"),
        (np.array([0, 1, 2, 9]), 2, "class 9 has 0 nodes, needs 4")],
        ids=["few-classes", "small-class", "empty-class"])
    def test_same_one_line_errors(self, classes, way, message):
        g = uneven_graph()
        errors = []
        for draw in (
                lambda rng: fsnc.draw_round(g, classes, way, 1, 3, 30, rng),
                lambda rng: [sample_episode(g, classes, way, 1, 3, rng)
                             for _ in range(30)],
                lambda rng: round_oracle.draw_tasks(g, classes, way, 1, 3,
                                                    30, rng)):
            with pytest.raises(FsncError) as info:
                draw(np.random.default_rng(2))
            errors.append(str(info.value))
        assert errors == [message] * 3
        if classes.size >= way:
            # the failing class is first drawn after whole tasks: mid-round
            rng, drawn = np.random.default_rng(2), 0
            with pytest.raises(FsncError):
                while True:
                    round_oracle.sample_episode(g, classes, way, 1, 3, rng)
                    drawn += 1
            assert drawn > 0


class TestBatchedHead:
    """`task_accuracy`'s one batched head against one `proto_head` call per
    task (`round_oracle.task_accuracy`), as a (mean, std) pair."""

    @pytest.mark.parametrize("tasks", [1, 9])
    @pytest.mark.parametrize("way,shot", [(2, 1), (2, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    @pytest.mark.parametrize("sliced", [False, True], ids=["full", "sliced"])
    def test_bit_identical_to_per_task_heads(self, sliced, scheme, way, shot,
                                             tasks):
        g = sparse_graph() if sliced else small_graph()
        op = normalize(g, scheme)
        params = mdl.init_params(mdl.uniform_dims(g.d0, 6, 6, 2),
                                 np.random.default_rng(way + shot + tasks))
        stds = []
        sizes = (way, shot, 4, tasks)
        for seed in range(3):
            drawn = fsnc.draw_round(g, np.arange(6), *sizes,
                                    np.random.default_rng(seed))
            episodes = round_oracle.draw_tasks(g, np.arange(6), *sizes,
                                               np.random.default_rng(seed))
            blocks = (mdl.blocks_for(op, np.unique(drawn.rows), 2)
                      if sliced else None)
            assert (blocks is not None) == sliced
            got = task_accuracy(params, g, op, drawn, blocks)
            assert got == round_oracle.task_accuracy(params, g, op, episodes,
                                                     blocks)
            stds.append(got[1])
        assert (max(stds) > 0) == (tasks > 1)

    @pytest.mark.parametrize("way,shot", [(2, 1), (3, 3)])
    def test_ties_go_to_the_first_class(self, monkeypatch, way, shot):
        g = small_graph()
        op = normalize(g, "gcn-sym")
        params = mdl.init_params(mdl.uniform_dims(g.d0, 4, 4, 2),
                                 np.random.default_rng(0))
        tasks = fsnc.draw_round(g, np.arange(8), way, shot, 3, 12,
                                np.random.default_rng(1))
        episodes = round_oracle.draw_tasks(g, np.arange(8), way, shot, 3, 12,
                                           np.random.default_rng(1))
        # embeddings on the corners of a square: many queries are as near
        # to two prototypes, and all-zero ones are as near to every one
        corners = np.random.default_rng(2).integers(0, 2, (g.n, 2)) * 1.0
        for emb in (corners, np.zeros((g.n, 2))):
            monkeypatch.setattr(mdl, "forward",
                                lambda *args: mdl.Activations([], [], emb))
            got = task_accuracy(params, g, op, tasks, None)
            assert got == round_oracle.task_accuracy(params, g, op, episodes,
                                                     None)
        ties = 0
        for e in episodes:
            zs = corners[e.support_idx].reshape(way, shot, 2).mean(axis=1)
            d2 = ((corners[e.query_idx][:, None] - zs) ** 2).sum(axis=2)
            ties += int(np.sum((d2 == d2.min(axis=1)[:, None]).sum(1) > 1))
        assert ties > 0
        # every query of the last embedding ties: each goes to class 0
        assert got[0] == pytest.approx(1 / way) and got[1] < 1e-15


class TestWorkLedger:
    """The work of evaluation and of a repeat's plan, pinned as counts."""

    @pytest.mark.parametrize("sliced", [False, True], ids=["full", "sliced"])
    def test_round_is_one_forward_and_no_proto_head(self, monkeypatch,
                                                    sliced):
        g = sparse_graph() if sliced else small_graph()
        split = split_classes(g.num_classes, (2, 2, 2) if sliced
                              else (4, 2, 2), 0)
        calls = {"forward": 0, "proto_head": 0}
        rounds = []

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        def spy_accuracy(params, graph, operator, tasks, blocks):
            before = dict(calls)
            out = accuracy(params, graph, operator, tasks, blocks)
            rounds.append((calls["forward"] - before["forward"],
                           calls["proto_head"] - before["proto_head"],
                           blocks is not None, len(tasks.rows)))
            return out

        accuracy = fsnc.task_accuracy
        monkeypatch.setattr(mdl, "forward", counted("forward", mdl.forward))
        monkeypatch.setattr(fsnc, "proto_head",
                            counted("proto_head", fsnc.proto_head))
        monkeypatch.setattr(fsnc, "task_accuracy", spy_accuracy)
        cfg = small_config(repeats=1, episodes=12, val_interval=3,
                           patience=10, query=10, val_tasks=4, test_tasks=7)
        report = train_protocol(cfg, g, split)
        assert rounds == [(1, 0, sliced, 4)] * 4 + [(1, 0, sliced, 7)]
        # every head call is a gradient evaluation's
        assert calls["proto_head"] == report.gnn_evals + report.mlp_evals

    @pytest.mark.parametrize("sparse,scheme,fills", [
        (True, "gcn-sym", [(1, 1110, 672573), (2, 1183, 710908)]),
        (True, "mean-neighbors", [(1, 1060, 644120), (2, 1165, 701566)]),
        (False, "gcn-sym", [(1, 160, 12720)] * 2),
        (False, "mean-neighbors", [(1, 160, 12720)] * 2)])
    def test_plan_fills_pinned_rows(self, sparse, scheme, fills):
        # two repeats' plans on one operator: products made so far, and
        # the count and sum of the A.X rows filled so far
        g = sparse_graph() if sparse else small_graph()
        split = split_classes(g.num_classes, (2, 2, 2) if sparse
                              else (4, 2, 2), 0)
        cfg = small_config(episodes=6, val_interval=3, query=10)
        op = normalize(g, scheme)
        got = []
        for root in (0, 1):
            fsnc._plan(cfg, g, split, op, root)
            _, full, slot, _ = op._input_memo
            rows = (np.arange(g.n) if full is not None
                    else np.flatnonzero(slot >= 0))
            assert (full is None) == sparse
            got.append((op.apply_count, rows.size, int(rows.sum())))
        assert got == fills


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

    @pytest.mark.parametrize("empty", ["train", "val", "test"])
    def test_empty_mask_rejected_before_first_step(self, monkeypatch, empty):
        g = small_graph(K=2, npc=10)
        masks = dict(zip(("train", "val", "test"), nc_masks(g)))
        masks[empty] = masks[empty][:0]

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(fsnc, "train_steps", no_step)
        with pytest.raises(FsncError, match=f"^the {empty} mask is empty$"):
            standard_nc_train(NCConfig(seed=0), g, tuple(masks.values()))

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
        assert np.array_equal(fg.best_params, ad.best_params)
        for ta, tb in zip(fg.trace, ad.trace):
            assert ta["loss"] == tb["loss"]
            assert ta["grad_norm"] == tb["grad_norm"]

    def test_patience_one_constant_metric_stops_at_second_validation(self):
        # two disjoint cliques keep validation accuracy pinned at 1.0
        g = small_graph(K=2, npc=40, p=1.0, q=0.0, D=10.0)
        cfg = NCConfig(steps=40, val_interval=5, patience=1, hidden=8,
                       seed=0)
        rep = standard_nc_train(cfg, g, nc_masks(g))
        assert rep.best_val_acc == 1.0
        assert rep.stop_step == 10
        assert len(rep.trace) == 10

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


def exact_ledger(name, t, k=2):
    """Cumulative (GNN, MLP) gradient evaluations after steps 0..t."""
    steps = t + 1
    if name == "fgsam+":
        exact = (steps + k - 1) // k        # steps 0, k, 2k, ... are exact
        return exact, 2 * exact + (steps - exact)
    per_step = {"adam": (1, 0), "sam": (2, 0), "fgsam": (1, 1)}[name]
    return per_step[0] * steps, per_step[1] * steps


def assert_ledger(name, trace):
    for row in trace:
        assert ((row["gnn_evals_cum"], row["mlp_evals_cum"])
                == exact_ledger(name, row["step"])), (name, row)


class TestLedger:
    """Every trace row of both trainers carries the exact evaluation
    counts, and each report's totals are the sums of the last rows."""

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_train_protocol_rows_reset_per_repeat(self, name):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        rep = train_protocol(small_config(optimizer=name, episodes=9,
                                          repeats=2), g, split)
        for r in rep.repeats:
            assert len(r.trace) == r.stop_episode
            assert_ledger(name, r.trace)
        last = [r.trace[-1] for r in rep.repeats]
        assert rep.gnn_evals == sum(row["gnn_evals_cum"] for row in last)
        assert rep.mlp_evals == sum(row["mlp_evals_cum"] for row in last)

    @pytest.mark.parametrize("name", optim.OPTIMIZER_NAMES)
    def test_standard_nc_train_rows(self, name):
        g = small_graph(K=3, npc=15)
        cfg = NCConfig(steps=9, val_interval=50, optimizer=name,
                       hp=optim.Hyperparams(rho=0.05, k=2), seed=0)
        rep = standard_nc_train(cfg, g, nc_masks(g))
        assert len(rep.trace) == 9
        assert_ledger(name, rep.trace)
        assert rep.gnn_evals == rep.trace[-1]["gnn_evals_cum"]
        assert rep.mlp_evals == rep.trace[-1]["mlp_evals_cum"]


class TestReports:
    def test_train_report_round_trip(self, tmp_path):
        g = small_graph()
        split = split_classes(g.num_classes, (4, 2, 2), 0)
        rep = train_protocol(small_config(episodes=6, repeats=1), g, split)
        cli._write_report(rep, str(tmp_path))
        payload = json.loads(open(tmp_path / "report.json").read())
        assert payload["test_acc_mean"] == rep.test_acc_mean
        assert (tmp_path / "trace_r0.csv").exists()
        header = open(tmp_path / "trace_r0.csv").readline().strip()
        assert header == ",".join(fsnc.TRACE_COLUMNS)
