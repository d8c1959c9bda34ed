import json
import os
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from block_oracle import assert_block_of_slice, restrict, row_block
from fgsam import cli, graphcore
from fgsam import model as mdl
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

    def test_negative_label_rejected(self):
        with pytest.raises(GraphError, match="^negative label$"):
            build_graph(2, [], np.zeros((2, 2)), [0, -1])

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

    # (edges, np.sort calls): pairs whose (min, max) keys already ascend
    # strictly take the early return, a reversed pair among them too
    CANONICAL = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    DEDUP_CASES = {
        "canonical": (CANONICAL, 0),
        "one reversed pair": ([(0, 1), (4, 0), (1, 2), (2, 3), (3, 4)], 0),
        "repeated pairs": ([(0, 1), (0, 1), (1, 2), (3, 4), (3, 4)], 1),
        "descending pairs": (CANONICAL[::-1], 1),
        "last pair out of place": (CANONICAL + [(0, 2)], 1),
    }

    @pytest.mark.parametrize("name", list(DEDUP_CASES))
    def test_dedup_sorts_only_when_out_of_order(self, monkeypatch, name):
        edges, sorts = self.DEDUP_CASES[name]
        want = row_unique_dedup(edges)
        calls = []
        real_sort = np.sort

        def spy(*args, **kwargs):
            calls.append(args)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", spy)
        got = graphcore._dedup_pairs(5, np.array(edges, dtype=np.int64))
        assert len(calls) == sorts
        assert got.dtype == np.int64 and got.shape == want.shape
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
        adj = adjacency(g).toarray() + np.eye(g.n)
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
        # before the fill a read raises, and makes no product
        with pytest.raises(GraphError, match="no A.X memo"):
            op.propagate_input(g.features)
        assert op.apply_count == 0
        op.fill_input(g.features)
        ax = op.propagate_input(g.features)
        assert np.array_equal(ax, op.matrix @ g.features)
        assert op.propagate_input(g.features) is ax
        assert op.apply_count == 1
        assert not ax.flags.writeable
        with pytest.raises(ValueError):
            ax[0, 0] = 1.0
        # a different array, even with equal contents, has no memo
        with pytest.raises(GraphError, match="another input"):
            op.propagate_input(g.features.copy())
        assert op.apply_count == 1 and op.propagate_input(g.features) is ax
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
        # the full product serves every read
        op.fill_input(x)
        assert same(first)
        assert op.apply_count == 1
        _, full, slot = op._input_memo
        assert slot is None and full.tobytes() == want.tobytes()
        assert same(np.arange(g.n)[::-1]) and op.propagate_input(x) is full
        assert op.apply_count == 1
        # a compact memo of the wide slice of the distinct rows
        op.fill_input(x, op.cut_slice(np.unique(first), False))
        assert op.apply_count == 2 and op._input_memo[2] is not None
        assert same(first) and same(first[::-1])
        assert op.apply_count == 2
        # another input array has no memo until it is filled
        copy = x.copy()
        with pytest.raises(GraphError, match="another input"):
            op.propagate_input(copy, first)
        assert op.apply_count == 2
        op.fill_input(copy)
        assert (op.propagate_input(copy, first).tobytes()
                == want[first].tobytes())
        assert op.apply_count == 3 and op._input_memo[0] is copy
        ident = normalize(g, "identity")
        assert ident.propagate_input(x) is x
        assert np.array_equal(ident.propagate_input(x, first), x[first])
        assert ident.apply_count == 0

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_fill_from_a_slice_cut_beforehand(self, scheme):
        # a slice cut by one operator fills another's memo with one
        # product, and reads the same bits as the full product's rows
        rng = np.random.default_rng(11)
        g = random_graph(rng, 80)
        x = g.features
        want = normalize(g, scheme).matrix @ x
        rows = np.array([3, 17, 40, 64])
        piece = normalize(g, scheme).cut_slice(rows, False)
        op = normalize(g, scheme)
        op.fill_input(x, piece)
        assert op.apply_count == 1
        _, filled, slot = op._input_memo
        assert np.array_equal(np.flatnonzero(slot >= 0), rows)
        assert filled.tobytes() == want[rows].tobytes()
        read = np.array([64, 3, 3])
        assert op.propagate_input(x, read).tobytes() == want[read].tobytes()
        assert op.apply_count == 1                    # nothing missing
        # without a slice the fill is the full product, which replaces the
        # compact memo
        op.fill_input(x)
        _, full, slot = op._input_memo
        assert op.apply_count == 2 and slot is None
        assert full.tobytes() == want.tobytes() and not full.flags.writeable
        ident = normalize(g, "identity")
        ident.fill_input(x, piece)
        assert ident._input_memo is None and ident.apply_count == 0
        assert ident.propagate_input(x) is x and x.flags.writeable

    @pytest.mark.parametrize("ask", ["missing row", "all rows"])
    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_compact_memo_reads_only_its_rows(self, scheme, ask):
        # a read that a compact memo cannot serve raises, makes no product
        # and leaves the memo to serve its own rows
        rng = np.random.default_rng(13)
        g = random_graph(rng, 80)
        x = g.features
        want = normalize(g, scheme).matrix @ x
        op = normalize(g, scheme)
        op.fill_input(x, op.cut_slice(np.array([3, 17, 40, 64]), False))
        memo = op._input_memo
        rows, miss = ((np.array([64, 5, 3]), "outside the compact")
                      if ask == "missing row" else (None, "holds only its"))
        with pytest.raises(GraphError, match=miss):
            op.propagate_input(x, rows)
        assert op.apply_count == 1 and op._input_memo is memo
        later = [64, 40, 3]
        assert op.propagate_input(x, later).tobytes() == want[later].tobytes()
        assert op.apply_count == 1

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
        assert op.apply_count == 0  # the counter is for forward products

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_narrow_slice_rows_bit_identical(self, scheme):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 80)
        op = normalize(g, scheme)
        h = rng.standard_normal((g.n, 4))
        rows = np.array([17, 3, 64, 40])          # any order, not sorted
        piece = op.cut_slice(rows, True)
        block, cols = op.wrap(piece), piece.cols
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
        # the identity operator cuts nothing: every layer of its receptive
        # field is itself on `rows`
        ident = normalize(g, "identity")
        for b in mdl.receptive_field(ident, rows, 3):
            assert b.op is ident and np.array_equal(b.rows, rows)


def assert_same_csr(got, want):
    """The same CSR arrays, dtypes included, and the same shape."""
    assert sp.isspmatrix_csr(got) and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestCutSlice:
    """`cut_slice` against the oracle cuts (`block_oracle`): `restrict`'s
    arrays where narrow, `row_block`'s where wide, every array
    read-only."""

    @staticmethod
    def cut(scheme, sets=20, seed=6):
        rng = np.random.default_rng(seed)
        full = random_graph(rng, 90)
        # node 89 loses its edges
        g = build_graph(90, full.edges[full.edges[:, 1] != 89],
                        full.features, full.labels)
        op = normalize(g, scheme)
        # narrow and wide mixed, rows in any order; the last set holds the
        # isolated node, and two more sets hold no row at all
        narrow = [bool(s % 3) for s in range(sets)] + [True, False]
        row_sets = [rng.choice(g.n - 1, int(rng.integers(1, 30)),
                               replace=False) for _ in range(sets)]
        row_sets[-1] = np.append(row_sets[-1][:3], 89)
        row_sets += [np.zeros(0, dtype=np.int64)] * 2
        return op, [(rows, slim, op.cut_slice(rows, slim))
                    for rows, slim in zip(row_sets, narrow)]

    @staticmethod
    def assert_oracle_cut(op, rows, slim, piece):
        assert piece.rows is rows
        if slim:
            block, cols = restrict(op, rows)
            assert piece.cols.dtype == cols.dtype
            assert np.array_equal(piece.cols, cols)
        else:
            block = row_block(op, rows)
            assert piece.cols is None
        assert_same_csr(piece.matrix, block.matrix)
        assert_block_of_slice(op.wrap(piece))

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_same_arrays_as_oracle_cuts(self, scheme):
        op, pieces = self.cut(scheme)
        for rows, slim, piece in pieces:
            self.assert_oracle_cut(op, rows, slim, piece)

    @pytest.mark.parametrize("narrow", [True, False])
    def test_empty_row(self, narrow):
        # row 1 of this matrix stores no entry
        a = graphcore._read_only(sp.csr_matrix(
            (np.array([0.5, -0.25, 2.0]), np.array([0, 2, 0]),
             np.array([0, 2, 2, 3])), shape=(3, 3)))
        op = graphcore.PropagationOperator("gcn-sym", a)
        for rows in (np.array([1]), np.array([2, 1, 0]), np.array([1, 0])):
            piece = op.cut_slice(rows, narrow)
            self.assert_oracle_cut(op, rows, narrow, piece)
            x = np.arange(1.0, 1.0 + 2 * piece.matrix.shape[1]).reshape(-1, 2)
            assert not op.wrap(piece).apply(x)[list(rows).index(1)].any()

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_wrapped_products_bit_identical_and_counted(self, scheme):
        op, pieces = self.cut(scheme)
        rng = np.random.default_rng(7)
        for rows, slim, piece in pieces:
            block = restrict(op, rows)[0] if slim else row_block(op, rows)
            wrapped = op.wrap(piece)
            x = rng.standard_normal((piece.matrix.shape[1], 5))
            dz = rng.standard_normal((rows.size, 5))
            before = op.apply_count
            assert wrapped.apply(x).tobytes() == block.apply(x).tobytes()
            assert wrapped.apply_t(dz).tobytes() == block.apply_t(dz).tobytes()
            assert wrapped.matrix is piece.matrix
            assert (op.apply_count - before, wrapped.apply_count) == (2, 0)

    def test_arrays_read_only(self):
        _, pieces = self.cut("mean-neighbors")
        for _, _, piece in pieces:
            arrays = [getattr(piece.matrix, name)
                      for name in ("data", "indices", "indptr")]
            for array in arrays + ([] if piece.cols is None
                                   else [piece.cols]):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1


class TestProducts:
    """Every product runs `graphcore._product`, scipy's own kernel without
    its dispatch: the same bits as `matrix @ x` and `matrix.T @ x` on every
    matrix an operator multiplies by, and transpose products the same bits
    as the sorted CSR copy of A^T (`matrix.T.tocsr()`) that `apply_t` once
    multiplied by."""

    @staticmethod
    def blocks(scheme):
        """The operator of every kind of matrix a forward multiplies by:
        the full matrix, a wide slice, a narrow slice and the narrow slice
        of the columns it reads (a receptive field's next layer down), each
        slice the oracle's cut, array for array."""
        rng = np.random.default_rng(11)
        full = random_graph(rng, 70)
        # node 69 loses its edges
        g = build_graph(70, full.edges[full.edges[:, 1] != 69],
                        full.features, full.labels)
        op = normalize(g, scheme)
        rows = np.array([40, 3, 69, 17, 3, 55])
        narrow = op.cut_slice(rows, True)
        pieces = {"wide slice": op.cut_slice(rows, False),
                  "narrow slice": narrow,
                  "lower slice": op.cut_slice(narrow.cols, True)}
        for piece in pieces.values():
            TestCutSlice.assert_oracle_cut(op, piece.rows,
                                           piece.cols is not None, piece)
        return op, {"full": op, **{name: op.wrap(piece)
                                   for name, piece in pieces.items()}}

    @staticmethod
    def inputs(rows, rng):
        """Inputs of widths 1, 5 and 16, with -0.0 and +0.0 entries."""
        for width in (1, 5, 16):
            x = rng.standard_normal((rows, width))
            x[::3, 0] = -0.0
            x[1::4, -1] = 0.0
            yield x

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_helper_matches_scipy_product(self, scheme):
        _, blocks = self.blocks(scheme)
        # a block with an empty row and an empty column
        empty = sp.csr_matrix((np.array([0.5, -0.25, 2.0]),
                               np.array([0, 2, 0]), np.array([0, 2, 2, 3])),
                              shape=(3, 4))
        mats = {name: block.matrix for name, block in blocks.items()}
        rng = np.random.default_rng(12)
        for name, mat in {**mats, "empty row": empty}.items():
            # scipy's transpose product is the oracle of the transpose
            for transpose, oracle in ((False, mat), (True, mat.T)):
                for x in self.inputs(oracle.shape[1], rng):
                    got = graphcore._product(mat, x, transpose)
                    want = oracle @ x
                    assert got.dtype == want.dtype, name
                    assert got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
        assert not graphcore._product(empty, np.ones((4, 2)))[1].any()
        # the empty row adds nothing, and the empty column gets nothing
        assert not graphcore._product(empty, np.ones((3, 2)), True)[3].any()

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_transpose_products_match_csr_copy(self, scheme):
        op, blocks = self.blocks(scheme)
        rng = np.random.default_rng(13)
        for name, block in blocks.items():
            mat = block.matrix
            oracle = mat.T.tocsr()
            for x in self.inputs(mat.shape[0], rng):
                assert (block.apply_t(x).tobytes()
                        == (oracle @ x).tobytes()), name
        # gcn-sym multiplied its full transpose products by the matrix
        # itself, which is symmetric bit for bit with sorted rows
        if scheme == "gcn-sym":
            for x in self.inputs(op.matrix.shape[0], rng):
                assert op.apply_t(x).tobytes() == (op.matrix @ x).tobytes()


class TestPlan:
    """The layer-0 plan (`cut_plan`) is the wide slice A[rows], held CSC
    where every row ascends and CSR otherwise, with read-only arrays. Its
    fill is one product, counted once, whose rows are those of the full
    CSR product, byte for byte."""

    @staticmethod
    def fill(op, rows, rng):
        """The plan of the distinct `rows`, after checking that it fills
        `op`'s memo with the full CSR product's rows on inputs of every
        width `TestProducts.inputs` gives, one counted product per fill."""
        plan = op.cut_plan(rows)
        wide = op.cut_slice(rows, False)
        assert plan.rows is rows and plan.cols is None
        assert plan.matrix.shape == wide.matrix.shape
        assert plan.matrix.nnz == wide.matrix.nnz
        for x in TestProducts.inputs(op.matrix.shape[0], rng):
            before = op.apply_count
            op.fill_input(x, plan)
            assert op.apply_count == before + 1
            want = graphcore._product(op.matrix, x)[rows]
            assert op.propagate_input(x, rows).tobytes() == want.tobytes()
        return plan

    @staticmethod
    def row_sets(n, rng):
        return [np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
                for _ in range(4)] + [np.arange(n)]

    @pytest.mark.parametrize("seed", range(6))
    def test_gcn_sym_plan_is_column_major(self, seed):
        rng = np.random.default_rng(seed)
        g = (random_graph(rng, int(rng.integers(20, 90))) if seed % 2
             else sparse_random_graph(seed))
        op = normalize(g, "gcn-sym")
        for rows in self.row_sets(g.n, rng):
            assert self.fill(op, rows, rng).matrix.format == "csc"

    @pytest.mark.parametrize("graph,fmt", [("csbm", "csr"),
                                           ("isolated", "csc")])
    def test_mean_neighbors_plan_is_column_major_where_rows_ascend(
            self, graph, fmt):
        # without an isolated node every row stores its columns descending
        # and the plan keeps the CSR kernel; with one, they ascend
        g = ORACLE_GRAPHS[graph]
        assert (g.degrees() == 0).any() == (fmt == "csc")
        op = normalize(g, "mean-neighbors")
        assert op.matrix.has_sorted_indices == (fmt == "csc")
        rng = np.random.default_rng(3)
        for rows in self.row_sets(g.n, rng):
            assert self.fill(op, rows, rng).matrix.format == fmt

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_plan_arrays_read_only(self, scheme):
        g = ORACLE_GRAPHS["csbm"]
        plan = normalize(g, scheme).cut_plan(np.arange(0, g.n, 3))
        for name in ("data", "indices", "indptr"):
            array = getattr(plan.matrix, name)
            with pytest.raises(ValueError):
                array[0] = array[0]


def adjacency(graph):
    """The adjacency matrix A of `graph` through scipy's COO-to-CSR
    conversion of both directions of every edge: unit entries, sorted
    rows."""
    if graph.num_edges == 0:
        return sp.csr_matrix((graph.n, graph.n))
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    row = np.concatenate([u, v])
    col = np.concatenate([v, u])
    return sp.csr_matrix((np.ones(row.size), (row, col)),
                         shape=(graph.n, graph.n))


def gcn_sym_by_products(graph):
    """The gcn-sym oracle: D~^{-1/2} (A + I) D~^{-1/2} as sparse products
    over the adjacency matrix."""
    adj_t = adjacency(graph) + sp.identity(graph.n, format="csr")
    deg = np.asarray(adj_t.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    return sp.csr_matrix(sp.diags(dinv) @ adj_t @ sp.diags(dinv))


def mean_neighbors_by_product(graph):
    """The mean-neighbors oracle: D^{-1} A as scipy's product
    `diags(1 / deg) @ A`, which leaves each row's columns in descending
    order, plus a unit self entry on every isolated node, a sum that leaves
    every row ascending."""
    adj = adjacency(graph)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    isolated = deg == 0
    inv = np.zeros_like(deg)
    inv[~isolated] = 1.0 / deg[~isolated]
    mat = sp.diags(inv) @ adj
    if isolated.any():
        idx = np.flatnonzero(isolated)
        mat = mat + sp.csr_matrix((np.ones(idx.size), (idx, idx)),
                                  shape=(graph.n, graph.n))
    return sp.csr_matrix(mat)


ORACLES = {"gcn-sym": gcn_sym_by_products,
           "mean-neighbors": mean_neighbors_by_product}


def assert_same_bytes(got, want):
    """The same CSR arrays byte for byte, dtypes, shape and sortedness
    included."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_sorted_indices == want.has_sorted_indices
    assert got.shape == want.shape


def sparse_random_graph(seed):
    """A seeded random graph with n / 3 random pairs, reversed and
    repeated ones among them, sparse enough to leave some nodes
    isolated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    edges = rng.integers(0, n, size=(n // 3, 2))
    edges = np.concatenate([edges, edges[::4, ::-1], edges[::5]])
    edges = edges[edges[:, 0] != edges[:, 1]]
    return build_graph(n, edges, rng.standard_normal((n, 2)),
                       rng.integers(0, 3, size=n))


# pairs given reversed and repeated, without and with an isolated node 6
REVERSED_PAIRS = [(1, 0), (0, 1), (4, 2), (2, 4), (2, 4), (3, 5), (5, 1),
                  (0, 3)]

ORACLE_GRAPHS = {
    "csbm": generate_csbm(CsbmParams(K=4, nodes_per_class=100, p=0.1,
                                     q=0.01, D=2.0, l=4, seed=0)),
    # p=0.02 within 30-node classes leaves some nodes isolated
    "isolated": generate_csbm(CsbmParams(K=3, nodes_per_class=30, p=0.02,
                                         q=0.0, D=2.0, l=4, seed=1)),
    **{f"random-isolated-{seed}": sparse_random_graph(seed)
       for seed in range(4)},
    "reversed-pairs": build_graph(6, REVERSED_PAIRS, np.zeros((6, 2)),
                                  [0, 1, 0, 1, 0, 1]),
    "reversed-pairs-isolated": build_graph(7, REVERSED_PAIRS,
                                           np.zeros((7, 2)),
                                           [0, 1, 0, 1, 0, 1, 0]),
    "edgeless": build_graph(5, [], np.zeros((5, 2)), [0, 1, 0, 1, 0]),
    "one-node": build_graph(1, [], np.zeros((1, 2)), [0]),
}

# the scipy kernels of the oracle constructions: COO-to-CSR conversion,
# duplicate sum, index sort and sparse product
BUILD_KERNELS = ("coo_tocsr", "csr_sum_duplicates", "csr_sort_indices",
                 "csr_matmat")


def spy_kernels(monkeypatch, names):
    """Record the name of every call of the scipy kernels `names`, in every
    `scipy.sparse` module that binds them."""
    calls = []
    for name in names:
        kernel = getattr(graphcore._sparsetools, name)

        def spy(*args, _name=name, _kernel=kernel):
            calls.append(_name)
            return _kernel(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("scipy.sparse")
                    and getattr(module, name, None) is kernel):
                monkeypatch.setattr(module, name, spy)
    return calls


class TestSharedMatrix:
    @pytest.mark.parametrize("scheme", list(ORACLES))
    @pytest.mark.parametrize("graph", list(ORACLE_GRAPHS.values()),
                             ids=list(ORACLE_GRAPHS))
    def test_bit_identical_to_products(self, graph, scheme):
        assert_same_bytes(normalize(graph, scheme).matrix,
                          ORACLES[scheme](graph))

    @pytest.mark.parametrize("scheme", list(ORACLES))
    def test_built_without_scipy_conversions(self, monkeypatch, scheme):
        # one sort of pair keys: no COO conversion, duplicate sum, index
        # sort or sparse product runs, with or without isolated nodes
        calls = spy_kernels(monkeypatch, BUILD_KERNELS)
        ORACLES[scheme](ORACLE_GRAPHS["isolated"])
        assert "coo_tocsr" in calls      # the spies see the oracle's calls
        calls.clear()
        for p in (0.02, 0.3):
            g = generate_csbm(CsbmParams(K=3, nodes_per_class=30, p=p,
                                         q=0.0, D=2.0, l=4, seed=1))
            normalize(g, scheme)
        assert calls == []

    @pytest.mark.parametrize("name", ["isolated", "reversed-pairs-isolated"]
                             + [f"random-isolated-{seed}" for seed in range(4)])
    def test_isolated_case_is_covered(self, name):
        g = ORACLE_GRAPHS[name]
        assert (g.degrees() == 0).any() and (g.degrees() > 0).any()

    @pytest.mark.parametrize("scheme", ["gcn-sym", "mean-neighbors"])
    def test_operators_share_matrix_not_state(self, scheme):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 40)
        a, b = normalize(g, scheme), normalize(g, scheme)
        assert a is not b and a.matrix is b.matrix
        a.fill_input(g.features)
        ax = a.propagate_input(g.features)
        assert (a.apply_count, b.apply_count) == (1, 0)
        assert b._input_memo is None
        with pytest.raises(GraphError, match="no A.X memo"):
            b.propagate_input(g.features)
        assert b.apply_count == 0
        b.fill_input(g.features)
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

    @pytest.mark.parametrize("q", [0.0, 1e-12])
    def test_sparse_path_edges_stay_in_class(self, q):
        # each pair of blocks draws no edge: with q = 0 before any count,
        # with q = 1e-12 from a count of zero
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=700, p=0.01, q=q,
                                     D=2.0, l=3, seed=5))
        assert g.n > 2000 and g.num_edges > 0
        assert np.array_equal(g.labels[g.edges[:, 0]],
                              g.labels[g.edges[:, 1]])

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

    @pytest.mark.parametrize("m", [2, 3, 5, 1000, 2**20 + 7, 2**26 + 1,
                                   2**27 + 1])
    def test_upper_pair_row_ends(self, m):
        # b² - 8 index exceeds 2**53 once m > 2**26 (b = 2m - 1); from
        # m = 2**27 + 1 on, the float estimate of a row's last pair rounds
        # up to the next row, which only the integer correction undoes
        rng = np.random.default_rng(m)
        rows = np.unique(np.concatenate([[0, 1, m // 2, m - 3, m - 2],
                                         rng.integers(0, m - 1, 500)]))
        rows = rows[(rows >= 0) & (rows <= m - 2)]
        starts = rows * (2 * m - rows - 1) // 2      # closed-form row start
        i, j = graphcore._upper_pair(
            m, np.concatenate([starts, starts + (m - 2 - rows)]))
        assert i.dtype == np.int64 and j.dtype == np.int64
        assert np.array_equal(i, np.concatenate([rows, rows]))
        assert np.array_equal(j, np.concatenate(
            [rows + 1, np.full(rows.size, m - 1)]))
        # the whole triangle's first and last pair
        i, j = graphcore._upper_pair(m, np.array([0, m * (m - 1) // 2 - 1]))
        assert i.tolist() == [0, m - 2] and j.tolist() == [1, m - 1]

    # (K, nodes per class, p, q, D, l) of the benchmark's graphs: the bench
    # graph (`cli.bench_instance`), fsnc-large and fsnc-small
    BENCH_CSBMS = {"nc-bench": (5, 1000, 0.03, 0.0025, 4.0, 128),
                   "fsnc-large": (20, 1000, 0.015, 0.0002, 4.0, 128),
                   "fsnc-small": (8, 25, 0.35, 0.05, 3.0, 8)}

    # (K, nodes per class, p, q, D, l) of the dense path's edge cases
    DENSE_CSBMS = {"one node": (1, 1, 0.5, 0.5, 1.0, 1),
                   "one class": (1, 40, 0.3, 0.7, 1.0, 1),
                   "one node per class": (6, 1, 0.5, 0.3, 1.0, 6),
                   "p = q = 0": (3, 10, 0.0, 0.0, 1.0, 3),
                   "p = q = 1": (3, 10, 1.0, 1.0, 1.0, 3),
                   "p = 1, q = 0": (3, 10, 1.0, 0.0, 1.0, 3),
                   "n = 2000": (4, 500, 0.01, 0.002, 2.0, 4),
                   "fsnc-small": BENCH_CSBMS["fsnc-small"]}

    @staticmethod
    def assert_same_as_triangle(got, params):
        features, edges, labels = triangle_csbm(params)
        want = Graph(got.n, features, edges, labels, params.K)
        for a, b in ((got.features, features), (got.edges, edges),
                     (got.labels, labels)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got.num_classes == params.K
        # each matrix against its scipy construction over the oracle's pairs
        for scheme, oracle in ORACLES.items():
            assert_same_bytes(got.propagation_matrix(scheme), oracle(want))

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("name", list(BENCH_CSBMS))
    def test_bit_identical_to_triangle_generator(self, name, seed):
        params = CsbmParams(*self.BENCH_CSBMS[name], seed=seed)
        got = (cli.bench_instance(seed) if name == "nc-bench"
               else generate_csbm(params))
        self.assert_same_as_triangle(got, params)

    @pytest.mark.parametrize("seed", [0, 17, 99])
    @pytest.mark.parametrize("name", list(DENSE_CSBMS))
    def test_dense_path_bit_identical_to_triangle_generator(self, name,
                                                            seed):
        params = CsbmParams(*self.DENSE_CSBMS[name], seed=seed)
        got = generate_csbm(params)
        assert got.n <= graphcore._DENSE_PAIR_LIMIT
        self.assert_same_as_triangle(got, params)
        if name in ("one node", "p = q = 0"):
            assert got.edges.shape == (0, 2)
            assert got.edges.dtype == np.int64
        if name == "p = q = 1":
            assert got.num_edges == got.n * (got.n - 1) // 2

    # the pair table of a block, and the row-start table that `_upper_pair`
    # once searched
    @pytest.mark.parametrize("name", ["triu_indices", "searchsorted"])
    def test_sparse_path_builds_no_pair_table(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"np.{name} called")

        monkeypatch.setattr(np, name, refuse)
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=667, p=0.01,
                                     q=0.002, D=2.0, l=3, seed=0))
        assert g.n == 2001 and g.num_edges > 0

    def test_dense_path_builds_no_pair_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.triu_indices called")

        monkeypatch.setattr(np, "triu_indices", refuse)
        g = generate_csbm(CsbmParams(*self.BENCH_CSBMS["fsnc-small"],
                                     seed=0))
        assert g.n == 200 and g.num_edges > 0

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

    def test_edgeless_round_trip_without_warnings(self, tmp_path):
        # a header-only edges.csv is valid input, read without numpy's
        # no-data warning
        g = generate_csbm(CsbmParams(K=3, nodes_per_class=30, p=0.0, q=0.0,
                                     D=2.0, l=4, seed=0))
        path = str(tmp_path / "g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_graph(g, path)
            back = load_graph(path)
            assert cli.run(["nc", "--graph", path, "--out",
                            str(tmp_path / "r"), "--episodes", "5"]) == 0
        assert g.num_edges == 0 and back.edges.shape == (0, 2)
        assert back.edges.dtype == np.int64
        assert np.array_equal(back.features, g.features)
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

    def test_labels_one_row_short_of_meta(self, tmp_path):
        g = generate_csbm(CsbmParams(K=2, nodes_per_class=5, p=0.5, q=0.1,
                                     D=2.0, l=2, seed=0))
        save_graph(g, str(tmp_path / "g"))
        path = tmp_path / "g" / "labels.csv"
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        with pytest.raises(GraphError,
                           match="^labels do not match meta record$"):
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
