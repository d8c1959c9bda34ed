import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from fgsam import cli, graphcore
from fgsam.graphcore import (CsbmParams, Graph, GraphError, build_graph,
                             generate_csbm, load_graph, normalize, save_graph,
                             simplex_means, with_num_classes)


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

    @pytest.mark.parametrize("n, edges", [
        (2, [(0, 1)]), (2, [(1, 0)]), (2, [(1, 0), (0, 1), (1, 0)]),
        *[(n, None) for n in (3, 10, 97, 1000)],
    ])
    def test_dedup_matches_row_unique(self, n, edges):
        if edges is None:
            # duplicates and reversed pairs in random order
            rng = np.random.default_rng(n)
            pairs = rng.integers(0, n, size=(4 * n, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            edges = np.concatenate([pairs, pairs[::3, ::-1], pairs[::5]])
            edges = edges[rng.permutation(len(edges))]
        want = row_unique_dedup(edges)
        got = build_graph(n, edges, np.zeros((n, 1)), np.zeros(n, int)).edges
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_edges_must_be_pairs(self):
        with pytest.raises(GraphError, match=r"\(2, 3\)"):
            build_graph(3, [(0, 1, 2), (0, 2, 1)], np.zeros((3, 1)), [0] * 3)
        with pytest.raises(GraphError, match=r"\(4,\)"):
            build_graph(3, [0, 1, 1, 2], np.zeros((3, 1)), [0] * 3)
        for empty in ([], np.zeros((0, 2)), np.zeros((0, 3))):
            g = build_graph(3, empty, np.zeros((3, 1)), [0] * 3)
            assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        features = np.zeros((3, 2))
        features[1, 0] = value
        with pytest.raises(GraphError, match="1 non-finite"):
            build_graph(3, [(0, 1)], features, [0, 1, 0])

    @pytest.mark.parametrize("n, edges", [
        (5, []), (2, [(0, 1)]), (50, None)])
    def test_degrees_match_scatter_add(self, n, edges):
        g = (random_graph(np.random.default_rng(9), n) if edges is None
             else build_graph(n, edges, np.zeros((n, 1)), [0] * n))
        want = np.zeros(n, dtype=np.int64)
        np.add.at(want, g.edges[:, 0], 1)
        np.add.at(want, g.edges[:, 1], 1)
        got = g.degrees()
        assert got.dtype == np.int64 and np.array_equal(got, want)


def row_unique_dedup(edges):
    """The dedup oracle: each pair sorted within its row, then the distinct
    rows in lexicographic order."""
    return np.unique(np.sort(np.asarray(edges, dtype=np.int64), axis=1),
                     axis=0)


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

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_input_rows_bit_identical_to_full_product(self, scheme):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 80)
        op = normalize(g, scheme)
        x = g.features
        indptr, indices = op.matrix.indptr, op.matrix.indices
        descending = [np.all(np.diff(indices[a:b]) < 0) and b - a > 1
                      for a, b in zip(indptr[:-1], indptr[1:])]
        assert any(descending) == (scheme == "mean-neighbors")
        want = op.matrix @ x

        def same(rows):
            return op.propagate_input(x, rows).tobytes() == want[rows].tobytes()

        first = np.array([17, 3, 64, 3, 40, 17])      # unsorted, repeated
        assert same(first)
        assert op.apply_count == 1
        _, full, slot, filled = op._input_memo
        assert full is None and slot.shape == (g.n,)
        assert filled.shape == (4, g.d0)
        second = np.array([64, 5, 79, 0, 5])          # 2 filled, 3 missing
        assert same(second)
        assert op.apply_count == 2                    # one more fill
        assert op._input_memo[3].shape == (7, g.d0)   # the buffer grew
        both = np.concatenate([second, first])
        assert same(both) and op.apply_count == 2     # nothing missing
        # the full product, once filled, serves rows and drops the buffer
        assert op.propagate_input(x).tobytes() == want.tobytes()
        assert op.apply_count == 3 and op._input_memo[2:] == (None, None)
        assert same(both) and same(np.arange(g.n)[::-1])
        assert op.apply_count == 3
        # another input array starts a memo of its own
        copy = x.copy()
        assert (op.propagate_input(copy, first).tobytes()
                == want[first].tobytes())
        assert op.apply_count == 4 and op._input_memo[0] is copy
        ident = normalize(g, "identity")
        assert ident.propagate_input(x) is x
        assert np.array_equal(ident.propagate_input(x, first), x[first])
        assert ident.apply_count == 0

    def test_unknown_scheme(self):
        g = build_graph(2, [(0, 1)], np.zeros((2, 1)), [0, 0])
        with pytest.raises(GraphError):
            normalize(g, "laplacian")

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_transpose_product_bit_identical(self, scheme):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 60)
        # node 59 loses its edges: mean-neighbors gives it a self-entry,
        # and its matrix is not symmetric
        g = build_graph(g.n, g.edges[(g.edges != 59).all(axis=1)],
                        g.features, g.labels)
        assert g.degrees()[59] == 0
        op = normalize(g, scheme)
        if scheme == "gcn-sym":
            assert (op.matrix != op.matrix.T).nnz == 0
        else:
            assert (op.matrix != op.matrix.T).nnz > 0
        for cols in (1, 3, 16):
            x = rng.standard_normal((g.n, cols))
            want = op.matrix.T @ x
            assert np.array_equal(op.apply_t(x), want)
            assert np.array_equal(op.apply_t(x), want)  # cached transpose
        assert op.apply_count == 0  # the counter is for forward products

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_restrict_rows_bit_identical(self, scheme):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 80)
        op = normalize(g, scheme)
        h = rng.standard_normal((g.n, 4))
        rows = np.array([17, 3, 64, 40])          # any order, not sorted
        block, cols = op.restrict(rows)
        dense = op.matrix.toarray()
        assert np.array_equal(cols, np.flatnonzero(dense[rows].any(axis=0)))
        assert np.array_equal(block.matrix.toarray(), dense[rows][:, cols])
        assert np.array_equal(block.apply(h[cols]), (op.matrix @ h)[rows])
        dm = rng.standard_normal((rows.size, 4))
        np.testing.assert_allclose(block.apply_t(dm),
                                   dense[rows][:, cols].T @ dm,
                                   rtol=1e-14, atol=1e-15)
        # products on a block count on the operator it was cut from
        assert (op.apply_count, block.apply_count) == (1, 0)
        assert op.row_nnz(rows) == block.matrix.nnz
        ident = normalize(g, "identity")
        assert ident.restrict(rows)[0] is ident
        assert np.array_equal(ident.restrict(rows)[1], rows)


def gcn_sym_by_products(graph):
    """The gcn-sym oracle: D~^{-1/2} (A + I) D~^{-1/2} as sparse products
    over the adjacency matrix."""
    adj_t = graph.adjacency() + sp.identity(graph.n, format="csr")
    deg = np.asarray(adj_t.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    return sp.csr_matrix(sp.diags(dinv) @ adj_t @ sp.diags(dinv))


class TestSharedMatrix:
    @pytest.mark.parametrize("graph", [
        generate_csbm(CsbmParams(K=4, nodes_per_class=100, p=0.1, q=0.01,
                                 D=2.0, l=4, seed=0)),
        # p=0.02 within 30-node classes leaves some nodes isolated
        generate_csbm(CsbmParams(K=3, nodes_per_class=30, p=0.02, q=0.0,
                                 D=2.0, l=4, seed=1)),
        build_graph(5, [], np.zeros((5, 2)), [0, 1, 0, 1, 0]),
    ], ids=["csbm", "isolated", "edgeless"])
    def test_gcn_sym_bit_identical_to_products(self, graph):
        want = gcn_sym_by_products(graph)
        got = normalize(graph, "gcn-sym").matrix
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert got.has_sorted_indices == want.has_sorted_indices
        assert got.shape == want.shape

    def test_isolated_case_is_covered(self):
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=30, p=0.02, q=0.0,
                                     D=2.0, l=4, seed=1))
        assert (g.degrees() == 0).any() and (g.degrees() > 0).any()

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_operators_share_matrix_not_state(self, scheme):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 40)
        a, b = normalize(g, scheme), normalize(g, scheme)
        assert a is not b and a.matrix is b.matrix
        ax = a.propagate_input(g.features)
        assert (a.apply_count, b.apply_count) == (1, 0)
        assert b._input_memo is None
        assert b.propagate_input(g.features) is not ax
        assert (a.apply_count, b.apply_count) == (1, 1)

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_matrix_arrays_read_only(self, scheme):
        g = random_graph(np.random.default_rng(8), 40)
        mat = normalize(g, scheme).matrix
        for array in (mat.data, mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_sorting_unsorted_mean_neighbors_raises(self):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=20, p=0.5, q=0.1,
                                     D=2.0, l=2, seed=0))
        assert (g.degrees() > 0).all()
        mat = normalize(g, "mean-neighbors").matrix
        assert not mat.has_sorted_indices
        with pytest.raises(ValueError):
            mat.sort_indices()

    def test_built_once_per_graph_and_scheme(self, monkeypatch):
        from fgsam import graphcore
        calls = []
        build = graphcore._BUILDERS["gcn-sym"]
        monkeypatch.setitem(graphcore._BUILDERS, "gcn-sym",
                            lambda graph: calls.append(graph) or build(graph))
        g = random_graph(np.random.default_rng(10), 30)
        normalize(g, "gcn-sym")
        normalize(g, "gcn-sym")
        normalize(g, "mean-neighbors")
        assert calls == [g]
        # a graph derived from it is a new graph with its own matrices
        normalize(with_num_classes(g, 4), "gcn-sym")
        assert len(calls) == 2


class TestClassNodes:
    def test_equal_to_label_scan(self):
        rng = np.random.default_rng(6)
        g = with_num_classes(random_graph(rng, 50), 5)  # classes 3, 4 empty
        pools = g.class_nodes
        assert g.class_nodes is pools  # built once per graph
        for c in range(3):
            assert np.array_equal(pools[c], np.flatnonzero(g.labels == c))
        assert len(pools) == 3


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

    @pytest.mark.parametrize("D", [0.0, -1.0, np.nan, np.inf])
    def test_distance_positive_finite(self, D):
        with pytest.raises(GraphError, match="positive and finite"):
            simplex_means(3, D, 3)


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

    @pytest.mark.parametrize("m", [2, 3, 7, 1000])
    def test_upper_pair_matches_triu_indices(self, m):
        iu, ju = np.triu_indices(m, k=1)
        npairs = m * (m - 1) // 2
        index = np.concatenate([[0, npairs - 1],
                                np.random.default_rng(m).permutation(npairs)])
        i, j = graphcore._upper_pair(m, index)
        assert np.array_equal(i, iu[index]) and np.array_equal(j, ju[index])
        assert i.dtype == iu.dtype and j.dtype == ju.dtype

    # (K, nodes per class, p, q, D, l) of the benchmark's graphs: the bench
    # graph (`cli.bench_instance`), fsnc-large and fsnc-small
    BENCH_CSBMS = {"nc-bench": (5, 1000, 0.03, 0.0025, 4.0, 128),
                   "fsnc-large": (20, 1000, 0.015, 0.0002, 4.0, 128),
                   "fsnc-small": (8, 25, 0.35, 0.05, 3.0, 8)}

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("name", list(BENCH_CSBMS))
    def test_bit_identical_to_triangle_generator(self, name, seed):
        params = CsbmParams(*self.BENCH_CSBMS[name], seed=seed)
        got = (cli.bench_instance(seed) if name == "nc-bench"
               else generate_csbm(params))
        features, edges, labels = triangle_csbm(params)
        want = Graph(got.n, features, edges, labels, params.K)
        for a, b in ((got.features, features), (got.edges, edges),
                     (got.labels, labels)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got.num_classes == params.K
        for scheme in ("gcn-sym", "mean-neighbors"):
            a = got.propagation_matrix(scheme)
            b = want.propagation_matrix(scheme)
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_sparse_path_builds_no_triangle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.triu_indices called")

        monkeypatch.setattr(np, "triu_indices", refuse)
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=667, p=0.01,
                                     q=0.002, D=2.0, l=3, seed=0))
        assert g.n == 2001 and g.num_edges > 0

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            CsbmParams(K=2, nodes_per_class=10, p=1.5, q=0.1, D=1, l=2, seed=0)
        with pytest.raises(GraphError):
            CsbmParams(K=2, nodes_per_class=10, p=0.5, q=0.1, D=-1, l=2, seed=0)
        with pytest.raises(GraphError):
            CsbmParams(K=3, nodes_per_class=10, p=0.5, q=0.1, D=1, l=2, seed=0)

    @pytest.mark.parametrize("D", [np.nan, np.inf])
    def test_non_finite_distance(self, D):
        # nan passes a `D <= 0` check: every comparison with it is false
        with pytest.raises(GraphError, match="positive and finite"):
            CsbmParams(K=2, nodes_per_class=10, p=0.5, q=0.1, D=D, l=2,
                       seed=0)


def triangle_csbm(params):
    """The CSBM generator oracle: (features, edges, labels) drawn the way
    `generate_csbm` draws them, with each block's pairs indexed through
    `np.triu_indices` and duplicates dropped by `row_unique_dedup`."""
    K, npc = params.K, params.nodes_per_class
    n = K * npc
    rng = np.random.default_rng(params.seed)
    labels = np.repeat(np.arange(K), npc)
    features = (rng.standard_normal((n, params.l))
                + simplex_means(K, params.D, params.l)[labels])
    if n <= 2000:
        iu, ju = np.triu_indices(n, k=1)
        prob = np.where(labels[iu] == labels[ju], params.p, params.q)
        keep = rng.random(iu.size) < prob
        return features, row_unique_dedup(
            np.column_stack([iu[keep], ju[keep]])), labels

    def block_pairs(rows, cols, prob, intra):
        npairs = (rows.size * (rows.size - 1) // 2 if intra
                  else rows.size * cols.size)
        count = rng.binomial(npairs, prob) if npairs and prob else 0
        if count == 0:
            return np.zeros((0, 2), dtype=np.int64)
        chosen = rng.choice(npairs, size=count, replace=False)
        if intra:
            iu, ju = np.triu_indices(rows.size, k=1)
            return np.column_stack([rows[iu[chosen]], rows[ju[chosen]]])
        return np.column_stack([rows[chosen // cols.size],
                                cols[chosen % cols.size]])

    blocks = [np.arange(k * npc, (k + 1) * npc) for k in range(K)]
    pairs = []
    for a in range(K):
        pairs.append(block_pairs(blocks[a], blocks[a], params.p, True))
        for b in range(a + 1, K):
            pairs.append(block_pairs(blocks[a], blocks[b], params.q, False))
    return features, row_unique_dedup(np.concatenate(pairs)), labels


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

    def test_edge_rows_must_be_pairs(self, tmp_path):
        g = build_graph(3, [], np.zeros((3, 1)), [0, 1, 2])
        save_graph(g, str(tmp_path / "g"))
        # a weight column must not be read as more endpoints
        (tmp_path / "g" / "edges.csv").write_text("src,dst,w\n0,1,2\n0,2,1\n")
        with pytest.raises(GraphError, match=r"\(2, 3\)"):
            load_graph(str(tmp_path / "g"))

    def test_non_finite_feature_rejected(self, tmp_path):
        g = build_graph(3, [(0, 1)], np.zeros((3, 2)), [0, 1, 2])
        save_graph(g, str(tmp_path / "g"))
        (tmp_path / "g" / "features.csv").write_text(
            "f0,f1\n0,0\nnan,0\n0,0\n")
        with pytest.raises(GraphError, match="non-finite"):
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
