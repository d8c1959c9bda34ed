import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from fgsam.graphcore import (CsbmParams, GraphError, build_graph,
                             generate_csbm, inject_edge_noise,
                             inject_feature_noise, load_graph, normalize,
                             save_graph, simplex_means, with_num_classes)


def random_graph(rng, n):
    d0 = int(rng.integers(2, 5))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.1
    edges = np.column_stack([iu[keep], ju[keep]])
    features = rng.standard_normal((n, d0))
    labels = rng.integers(0, 3, size=n)
    labels[:3] = [0, 1, 2]
    return build_graph(n, edges, features, labels)


class TestBuildGraph:
    def test_dedups_reversed_pair(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)],
                        np.zeros((3, 2)), [0, 1, 0])
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 0)], np.zeros((2, 2)), [0, 1])

    def test_label_out_of_declared_range(self):
        g = build_graph(2, [], np.zeros((2, 2)), [0, 5])
        with pytest.raises(GraphError):
            with_num_classes(g, 2)

    def test_dimension_mismatches(self):
        with pytest.raises(GraphError):
            build_graph(3, [], np.zeros((2, 2)), [0, 1, 0])
        with pytest.raises(GraphError):
            build_graph(3, [], np.zeros((3, 2)), [0, 1])
        with pytest.raises(GraphError):
            build_graph(3, [(0, 5)], np.zeros((3, 2)), [0, 1, 0])

    def test_edge_ordering_invariant(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 50)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert np.unique(g.edges, axis=0).shape == g.edges.shape


class TestOperators:
    def test_mean_neighbors_path_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), [0, 0, 0])
        op = normalize(g, "mean-neighbors")
        row1 = op.matrix[[1]].toarray().ravel()
        np.testing.assert_allclose(row1, [0.5, 0.0, 0.5])

    def test_identity_bit_exact(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 40)
        op = normalize(g, "identity")
        x = rng.standard_normal((g.n, 7))
        assert op.apply(x) is x
        assert op.apply_t(x) is x
        assert op.is_identity

    def test_gcn_sym_single_edge(self):
        g = build_graph(2, [(0, 1)], np.zeros((2, 1)), [0, 0])
        op = normalize(g, "gcn-sym")
        np.testing.assert_allclose(op.matrix.toarray(), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_neighbors_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(10, 200)))
        op = normalize(g, "mean-neighbors")
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        deg = g.degrees()
        for i in np.flatnonzero(deg == 0):
            row = op.matrix[[i]].toarray().ravel()
            assert row[i] == 1.0 and np.count_nonzero(row) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_gcn_sym_matches_dense_formula(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng, int(rng.integers(10, 200)))
        adj = g.adjacency().toarray() + np.eye(g.n)
        dinv = 1.0 / np.sqrt(adj.sum(axis=1))
        expect = dinv[:, None] * adj * dinv[None, :]
        op = normalize(g, "gcn-sym")
        np.testing.assert_allclose(op.matrix.toarray(), expect, atol=1e-12)

    def test_apply_count_tracks_message_passing(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 20)
        op = normalize(g, "gcn-sym")
        x = rng.standard_normal((g.n, 3))
        op.apply(x)
        op.apply(x)
        assert op.apply_count == 2
        ident = normalize(g, "identity")
        ident.apply(x)
        assert ident.apply_count == 0

    def test_input_propagation_cached_read_only(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20)
        op = normalize(g, "mean-neighbors")
        ax = op.propagate_input(g.features)
        assert np.array_equal(ax, op.matrix @ g.features)
        assert op.propagate_input(g.features) is ax
        assert op.apply_count == 1
        assert not ax.flags.writeable
        with pytest.raises(ValueError):
            ax[0, 0] = 1.0
        # a different array, even with equal contents, replaces the memo
        op.propagate_input(g.features.copy())
        assert op.apply_count == 2
        ident = normalize(g, "identity")
        assert ident.propagate_input(g.features) is g.features

    def test_unknown_scheme(self):
        g = build_graph(2, [(0, 1)], np.zeros((2, 1)), [0, 0])
        with pytest.raises(GraphError):
            normalize(g, "laplacian")


class TestSimplexMeans:
    def test_k2_distance(self):
        m = simplex_means(2, 2.0, 2)
        assert abs(np.linalg.norm(m[0] - m[1]) - 2.0) < 1e-9

    def test_k3_all_pairwise(self):
        m = simplex_means(3, 1.0, 3)
        for a in range(3):
            for b in range(a + 1, 3):
                assert abs(np.linalg.norm(m[a] - m[b]) - 1.0) < 1e-9

    def test_pairwise_constant_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            K = int(rng.integers(2, 8))
            D = float(rng.uniform(0.5, 10))
            l = K + int(rng.integers(0, 4))
            m = simplex_means(K, D, l)
            diff = m[:, None, :] - m[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            off = dist[~np.eye(K, dtype=bool)]
            assert np.all(np.abs(off - D) < 1e-9)

    def test_dimension_too_small(self):
        with pytest.raises(GraphError):
            simplex_means(3, 1.0, 2)


class TestCsbm:
    def test_two_cliques(self):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=100, p=1.0, q=0.0,
                                     D=2.0, l=2, seed=0))
        assert g.num_edges == 2 * (100 * 99 // 2)
        same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
        assert same.all()

    def test_intra_count_binomial_concentration(self):
        params = CsbmParams(K=2, nodes_per_class=500, p=0.1, q=0.02,
                            D=2.0, l=2, seed=7)
        g = generate_csbm(params)
        same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
        intra = int(same.sum())
        npairs = 2 * (500 * 499 // 2)
        mean = npairs * 0.1
        sigma = np.sqrt(npairs * 0.1 * 0.9)
        assert abs(intra - mean) < 4 * sigma
        inter = g.num_edges - intra
        npairs_x = 500 * 500
        assert abs(inter - npairs_x * 0.02) < 4 * np.sqrt(npairs_x * 0.02 * 0.98)

    def test_determinism(self):
        params = CsbmParams(K=3, nodes_per_class=50, p=0.3, q=0.05,
                            D=2.0, l=4, seed=11)
        a = generate_csbm(params)
        b = generate_csbm(params)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.labels, b.labels)

    def test_large_n_marginals(self):
        # n > 2000 exercises the count-then-sample path
        params = CsbmParams(K=3, nodes_per_class=1000, p=0.01, q=0.002,
                            D=2.0, l=3, seed=5)
        g = generate_csbm(params)
        assert g.n == 3000
        same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
        intra = int(same.sum())
        npairs_i = 3 * (1000 * 999 // 2)
        assert abs(intra - npairs_i * 0.01) < 4 * np.sqrt(npairs_i * 0.01 * 0.99)
        inter = g.num_edges - intra
        npairs_x = 3 * 1000 * 1000
        assert abs(inter - npairs_x * 0.002) < 4 * np.sqrt(
            npairs_x * 0.002 * 0.998)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert np.unique(g.edges, axis=0).shape == g.edges.shape

    def test_feature_distribution(self):
        params = CsbmParams(K=2, nodes_per_class=2000, p=0.1, q=0.02,
                            D=2.0, l=2, seed=9)
        g = generate_csbm(params)
        means = simplex_means(2, 2.0, 2)
        for k in range(2):
            emp = g.features[g.labels == k].mean(axis=0)
            assert np.all(np.abs(emp - means[k]) < 4 / np.sqrt(2000))

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            CsbmParams(K=2, nodes_per_class=10, p=1.5, q=0.1, D=1, l=2, seed=0)
        with pytest.raises(GraphError):
            CsbmParams(K=2, nodes_per_class=10, p=0.5, q=0.1, D=-1, l=2, seed=0)
        with pytest.raises(GraphError):
            CsbmParams(K=3, nodes_per_class=10, p=0.5, q=0.1, D=1, l=2, seed=0)


class TestNoise:
    def setup_method(self):
        self.g = generate_csbm(CsbmParams(K=2, nodes_per_class=50, p=0.3,
                                          q=0.05, D=2.0, l=100, seed=0))

    def test_feature_noise_zero_sigma(self):
        out = inject_feature_noise(self.g, 0.0, 1)
        assert np.array_equal(out.features, self.g.features)

    def test_feature_noise_std(self):
        out = inject_feature_noise(self.g, 1.0, 1)
        added = out.features - self.g.features
        assert 0.95 < added.std() < 1.05  # n*d0 = 10^4 samples
        assert np.array_equal(out.edges, self.g.edges)
        assert np.array_equal(out.labels, self.g.labels)

    def test_feature_noise_determinism(self):
        a = inject_feature_noise(self.g, 0.5, 2)
        b = inject_feature_noise(self.g, 0.5, 2)
        assert np.array_equal(a.features, b.features)

    def test_feature_noise_negative_sigma(self):
        with pytest.raises(GraphError):
            inject_feature_noise(self.g, -0.1, 0)

    def test_edge_noise_zero_ratio(self):
        out = inject_edge_noise(self.g, 0.0, 1)
        assert np.array_equal(out.edges, self.g.edges)

    def test_edge_noise_counts(self):
        out = inject_edge_noise(self.g, 0.5, 1)
        assert out.num_edges == self.g.num_edges + self.g.num_edges // 2
        assert np.unique(out.edges, axis=0).shape == out.edges.shape
        assert np.all(out.edges[:, 0] < out.edges[:, 1])
        # originals retained
        old = set(map(tuple, self.g.edges))
        new = set(map(tuple, out.edges))
        assert old <= new

    def test_edge_noise_capacity_error(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)],
                        np.zeros((3, 1)), [0, 0, 0])
        with pytest.raises(GraphError):
            inject_edge_noise(g, 1.0, 0)

    def test_edge_noise_determinism(self):
        a = inject_edge_noise(self.g, 0.3, 4)
        b = inject_edge_noise(self.g, 0.3, 4)
        assert np.array_equal(a.edges, b.edges)


class TestIO:
    def test_round_trip(self, tmp_path):
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=20, p=0.4, q=0.1,
                                     D=2.0, l=4, seed=3))
        save_graph(g, str(tmp_path / "g"))
        back = load_graph(str(tmp_path / "g"))
        assert back.n == g.n and back.num_classes == g.num_classes
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.edges, g.edges)
        assert np.array_equal(back.labels, g.labels)

    def test_missing_file(self, tmp_path):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=5, p=0.5, q=0.1,
                                     D=2.0, l=2, seed=0))
        save_graph(g, str(tmp_path / "g"))
        os.remove(tmp_path / "g" / "labels.csv")
        with pytest.raises(GraphError):
            load_graph(str(tmp_path / "g"))

    def test_edge_out_of_range(self, tmp_path):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=5, p=0.5, q=0.1,
                                     D=2.0, l=2, seed=0))
        save_graph(g, str(tmp_path / "g"))
        with open(tmp_path / "g" / "edges.csv", "a") as fh:
            fh.write("0,99\n")
        with pytest.raises(GraphError):
            load_graph(str(tmp_path / "g"))

    def test_meta_mismatch(self, tmp_path):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=5, p=0.5, q=0.1,
                                     D=2.0, l=2, seed=0))
        save_graph(g, str(tmp_path / "g"))
        meta_path = tmp_path / "g" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(GraphError):
            load_graph(str(tmp_path / "g"))
