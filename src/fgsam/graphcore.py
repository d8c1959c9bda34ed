"""Graph container, propagation operators, CSBM synthesis and file I/O."""

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    pass


@dataclass
class Graph:
    """Undirected graph with dense node features and integer labels.

    Edges are stored as an (E, 2) int array with u < v, deduplicated,
    no self-loops. Treat all arrays as immutable after construction.
    """

    n: int
    features: np.ndarray  # (n, d0) float64
    edges: np.ndarray     # (E, 2) int64, u < v
    labels: np.ndarray    # (n,) int64
    num_classes: int
    # scheme -> normalized matrix, filled by `propagation_matrix`
    _matrices: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def d0(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def class_nodes(self) -> list:
        """Entry c holds the nodes of class c in ascending order, the same
        array as `np.flatnonzero(labels == c)`; built once per graph."""
        order = np.argsort(self.labels, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.labels))[:-1])

    def propagation_matrix(self, scheme: str) -> sp.csr_matrix:
        """The normalized n x n matrix of `scheme` ("gcn-sym" or
        "mean-neighbors"), built on the first call and shared by every
        operator of this graph. Its arrays are read-only, so an in-place
        change such as `sort_indices` raises instead of re-ordering the
        products of every later run on the graph."""
        mat = self._matrices.get(scheme)
        if mat is None:
            mat = _BUILDERS[scheme](self)
            for array in (mat.data, mat.indices, mat.indptr):
                array.flags.writeable = False
            self._matrices[scheme] = mat
        return mat

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self) -> sp.csr_matrix:
        if self.num_edges == 0:
            return sp.csr_matrix((self.n, self.n))
        u, v = self.edges[:, 0], self.edges[:, 1]
        row = np.concatenate([u, v])
        col = np.concatenate([v, u])
        data = np.ones(row.shape[0])
        return sp.csr_matrix((data, (row, col)), shape=(self.n, self.n))


def build_graph(n, edges, features, labels) -> Graph:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
        raise GraphError(f"edges must have shape (E, 2), got shape {edges.shape}")
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(f"features must have {n} rows, got shape {features.shape}")
    bad = features.size - np.count_nonzero(np.isfinite(features))
    if bad:
        raise GraphError(f"features must be finite, got {bad} non-finite values")
    if labels.shape != (n,):
        raise GraphError(f"labels must have {n} entries, got shape {labels.shape}")
    if labels.size and labels.min() < 0:
        raise GraphError("negative label")
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise GraphError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise GraphError("self-loop present")
        edges = _dedup_pairs(n, edges)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return Graph(n=n, features=features, edges=edges, labels=labels,
                 num_classes=num_classes)


def _dedup_pairs(n: int, edges: np.ndarray) -> np.ndarray:
    """The distinct pairs of `edges` as (min, max) rows in lexicographic
    order, the rows `np.unique(np.sort(edges, axis=1), axis=0)` gives.

    Each pair becomes the key u * n + v, which orders pairs as (u, v) rows
    do because v < n; keys are exact while n * n < 2**63 (n < 3.03e9). A
    1-D sort and an adjacent-repeat mask take time near-linear in the edge
    count; `np.unique` is several times slower on both forms (it sorts a
    structured view of the rows, and hashes the keys).
    """
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.sort(u * n + v)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return np.column_stack([keys // n, keys % n])


def with_num_classes(graph: Graph, num_classes: int) -> Graph:
    if graph.labels.size and graph.labels.max() >= num_classes:
        raise GraphError("label out of declared class range")
    return Graph(graph.n, graph.features, graph.edges, graph.labels, num_classes)


SCHEMES = ("gcn-sym", "mean-neighbors", "identity")


@dataclass
class PropagationOperator:
    """Sparse propagation matrix; the identity scheme bypasses the matmul.

    The matrix of a graph's operator is n x n, read-only and shared by
    every operator of the graph (`Graph.propagation_matrix`). A block cut
    from it by `restrict` holds a rectangular slice and counts its products
    on the operator it was cut from.
    """

    scheme: str
    matrix: sp.csr_matrix | None  # None for identity
    apply_count: int = 0          # message-passing applications (identity not counted)
    # A @ x for the last network input x seen by `propagate_input`:
    # (x, full product or None, row-to-slot map, filled rows)
    _input_memo: tuple = field(default=None, init=False, repr=False,
                               compare=False)
    # A^T in CSR form, built on the first transpose product
    _transpose: sp.csr_matrix = field(default=None, init=False, repr=False,
                                      compare=False)
    # the operator whose apply_count a block's products add to
    _source: "PropagationOperator" = field(default=None, repr=False,
                                           compare=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.scheme == "identity":
            return x
        (self if self._source is None else self._source).apply_count += 1
        return self.matrix @ x

    def propagate_input(self, x: np.ndarray, rows=None) -> np.ndarray:
        """`apply(x)` for the network input, or its `rows`, each row
        computed once per input array.

        A @ x does not depend on the parameters, so the first layer of
        every forward over the same features reads one memo, keyed by the
        identity of `x`. The memo holds `x` itself, so its identity cannot
        be recycled, and relies on `x` not being mutated (graph arrays are
        immutable after construction).

        `rows=None` returns the full product, read-only because every
        forward shares it. Given `rows` (any order, repeats allowed), the
        rows come from the full product once it is filled; until then they
        come from a compact buffer with an n-long row-to-slot map, and the
        rows still missing are filled by one product over the CSR slice
        A[missing]. The slice keeps each row's entries in A's order and all
        n columns, so a filled row is the same bits as that row of the full
        product, and no rows of `x` are gathered. The identity operator
        returns `x` or `x[rows]`.
        """
        if self.scheme == "identity":
            return x if rows is None else x[rows]
        memo = self._input_memo
        if memo is None or memo[0] is not x:
            memo = (x, None, None, None)
        _, full, slot, filled = memo
        if rows is None:
            if full is None:
                full = self.apply(x)
                full.flags.writeable = False
                self._input_memo = (x, full, None, None)
            return full
        if full is not None:
            return full[rows]
        rows = np.asarray(rows)
        if slot is None:
            slot = np.full(x.shape[0], -1, dtype=np.int64)
        missing = np.unique(rows[slot[rows] < 0])
        if missing.size or filled is None:
            start = 0 if filled is None else filled.shape[0]
            slot[missing] = np.arange(start, start + missing.size)
            new = self.row_block(missing).apply(x)
            filled = new if filled is None else np.concatenate([filled, new])
            self._input_memo = (x, None, slot, filled)
        return filled[slot[rows]]

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Multiply by the transpose (needed for reverse-mode gradients).

        The product runs on a CSR copy of A^T with sorted indices, which
        sums every output row in the same order as `matrix.T @ x` and gives
        the same bits, faster. A graph's `gcn-sym` matrix is symmetric bit
        for bit and has sorted rows, so it serves as its own transpose.
        """
        if self.scheme == "identity":
            return x
        if self._transpose is None:
            symmetric = self.scheme == "gcn-sym" and self._source is None
            self._transpose = (self.matrix if symmetric
                               else self.matrix.T.tocsr())
        return self._transpose @ x

    def row_block(self, rows: np.ndarray) -> "PropagationOperator":
        """The operator of the CSR row slice A[rows], with all n columns,
        whose products count on this operator. It keeps each row's entries
        in A's order, so a row of `row_block(rows).apply(h)` is the same
        row of `A @ h`, bit for bit, and `h` is read as it is."""
        indptr, pos = self._row_slice(rows)
        a = self.matrix
        block = sp.csr_matrix((a.data[pos], a.indices[pos], indptr),
                              shape=(len(rows), a.shape[1]))
        return PropagationOperator(self.scheme, block, _source=self)

    def restrict(self, rows: np.ndarray):
        """The block of this operator that produces only `rows`.

        Returns (block, cols): `cols` are the sorted columns that A[rows]
        reads, and `block` is the operator of the slice A[rows][:, cols],
        whose products count on this operator. The slice is cut from the
        CSR arrays and keeps every row's entries in A's order, so a row of
        `block.apply(h[cols])` is the same row of `A @ h`, bit for bit.
        The identity operator is its own block and reads `rows`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self.scheme == "identity":
            return self, rows
        indptr, pos = self._row_slice(rows)
        cols, local = np.unique(self.matrix.indices[pos], return_inverse=True)
        block = sp.csr_matrix((self.matrix.data[pos], local, indptr),
                              shape=(rows.size, cols.size))
        return PropagationOperator(self.scheme, block, _source=self), cols

    def _row_slice(self, rows: np.ndarray):
        """The CSR row pointers of A[rows] and the positions of its stored
        entries in A's `data` and `indices`, each row's in A's order."""
        starts = self.matrix.indptr[rows]
        counts = self.matrix.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return indptr, pos

    def row_nnz(self, rows: np.ndarray) -> int:
        """Stored entries of A[rows], read from the row pointers."""
        indptr = self.matrix.indptr
        return int((indptr[rows + 1] - indptr[rows]).sum())

    @property
    def is_identity(self) -> bool:
        return self.scheme == "identity"


def normalize(graph: Graph, scheme: str) -> PropagationOperator:
    """A fresh operator over the graph's shared `scheme` matrix: its
    `apply_count`, A.X memo and transpose belong to this operator alone, so
    A.X lives no longer than the run that holds the operator."""
    if scheme not in SCHEMES:
        raise GraphError(f"unknown scheme {scheme!r}")
    if scheme == "identity":
        return PropagationOperator("identity", None)
    return PropagationOperator(scheme, graph.propagation_matrix(scheme))


def _gcn_sym_matrix(graph: Graph) -> sp.csr_matrix:
    """D~^{-1/2} (A + I) D~^{-1/2} in CSR, built directly from the edge
    list plus self-loops: the row lengths are the degrees of A + I."""
    loops = np.arange(graph.n)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    rows = np.concatenate([u, v, loops])
    cols = np.concatenate([v, u, loops])
    mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                        shape=(graph.n, graph.n))
    count = np.diff(mat.indptr)
    dinv = 1.0 / np.sqrt(count)
    mat.data = np.repeat(dinv, count) * dinv[mat.indices]
    return mat


def _mean_neighbors_matrix(graph: Graph) -> sp.csr_matrix:
    """D^{-1} A, isolated nodes keeping their own features. The product
    leaves each row's columns in descending order (sorted when a node is
    isolated); a sorted rebuild would change the order every row of a
    product sums in, and with it the bits of every trace."""
    adj = graph.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    isolated = deg == 0
    inv = np.zeros_like(deg)
    inv[~isolated] = 1.0 / deg[~isolated]
    mat = sp.diags(inv) @ adj
    if isolated.any():
        # isolated nodes keep their own features (self-entry 1)
        idx = np.flatnonzero(isolated)
        mat = mat + sp.csr_matrix(
            (np.ones(idx.size), (idx, idx)), shape=(graph.n, graph.n))
    return sp.csr_matrix(mat)


_BUILDERS = {"gcn-sym": _gcn_sym_matrix,
             "mean-neighbors": _mean_neighbors_matrix}


@dataclass
class CsbmParams:
    K: int
    nodes_per_class: int
    p: float
    q: float
    D: float
    l: int
    seed: int

    def __post_init__(self):
        if self.K < 1:
            raise GraphError(f"class count K must be positive, got {self.K}")
        if self.nodes_per_class < 1:
            raise GraphError(f"nodes_per_class must be positive, got "
                             f"{self.nodes_per_class}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise GraphError("edge probabilities must lie in [0, 1]")
        # every comparison with nan is false, so nan fails this one too
        if not 0 < self.D < np.inf:
            raise GraphError(f"mean distance D must be positive and finite, "
                             f"got {self.D}")
        if self.l < self.K:
            raise GraphError("feature dimension must be >= class count")


def simplex_means(K: int, D: float, l: int) -> np.ndarray:
    """K equidistant class means in R^l: scaled standard basis vectors."""
    if l < K:
        raise GraphError(f"need l >= K, got l={l}, K={K}")
    if not 0 < D < np.inf:
        raise GraphError(f"D must be positive and finite, got {D}")
    means = np.zeros((K, l))
    means[np.arange(K), np.arange(K)] = D / np.sqrt(2.0)
    return means


# above this node count, per-pair Bernoulli iteration gets replaced by
# count-then-sample with the same marginal distribution
_DENSE_PAIR_LIMIT = 2000


def _sample_block_pairs(rng, rows, cols, prob, intra):
    """Uniformly sample each (row, col) pair with `prob`, returning index arrays."""
    if intra:
        npairs = rows.size * (rows.size - 1) // 2
    else:
        npairs = rows.size * cols.size
    if npairs == 0 or prob == 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    count = rng.binomial(npairs, prob)
    if count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    chosen = rng.choice(npairs, size=count, replace=False)
    if intra:
        i, j = _upper_pair(rows.size, chosen)
        return rows[i], rows[j]
    return rows[chosen // cols.size], cols[chosen % cols.size]


def _upper_pair(m: int, index: np.ndarray):
    """Row and column of the pairs at `index` in the row-major upper
    triangle of an m x m matrix, `np.triu_indices(m, k=1)[·][index]`,
    computed without building the m * (m - 1) / 2 pairs. Row i starts at
    pair i * (2m - i - 1) / 2."""
    i = np.arange(m - 1)
    starts = i * (2 * m - i - 1) // 2
    row = np.searchsorted(starts, index, "right") - 1
    return row, index - starts[row] + row + 1


def generate_csbm(params: CsbmParams) -> Graph:
    """Sample a K-class CSBM graph: Gaussian features around equidistant
    class means, each unordered pair an edge with probability p (same
    class) or q (different class). Pure function of params."""
    K, npc = params.K, params.nodes_per_class
    n = K * npc
    rng = np.random.default_rng(params.seed)
    means = simplex_means(K, params.D, params.l)
    labels = np.repeat(np.arange(K), npc)
    features = rng.standard_normal((n, params.l)) + means[labels]
    if n <= _DENSE_PAIR_LIMIT:
        iu, ju = np.triu_indices(n, k=1)
        prob = np.where(labels[iu] == labels[ju], params.p, params.q)
        keep = rng.random(iu.size) < prob
        edges = np.column_stack([iu[keep], ju[keep]])
    else:
        blocks = [np.arange(k * npc, (k + 1) * npc) for k in range(K)]
        us, vs = [], []
        for a in range(K):
            u, v = _sample_block_pairs(rng, blocks[a], blocks[a], params.p, True)
            us.append(u)
            vs.append(v)
            for b in range(a + 1, K):
                u, v = _sample_block_pairs(rng, blocks[a], blocks[b], params.q, False)
                us.append(u)
                vs.append(v)
        edges = np.column_stack([np.concatenate(us), np.concatenate(vs)])
    graph = build_graph(n, edges, features, labels)
    return with_num_classes(graph, K)


_FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def save_graph(graph: Graph, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    d0 = graph.d0
    np.savetxt(os.path.join(directory, "edges.csv"), graph.edges,
               fmt="%d", delimiter=",", header="src,dst", comments="")
    np.savetxt(os.path.join(directory, "features.csv"), graph.features,
               fmt=_FLOAT_FMT, delimiter=",",
               header=",".join(f"f{i}" for i in range(d0)), comments="")
    np.savetxt(os.path.join(directory, "labels.csv"), graph.labels,
               fmt="%d", header="label", comments="")
    meta = {"n": graph.n, "d0": d0, "num_classes": graph.num_classes}
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_graph(directory: str) -> Graph:
    for name in ("edges.csv", "features.csv", "labels.csv", "meta.json"):
        if not os.path.exists(os.path.join(directory, name)):
            raise GraphError(f"missing {name} in {directory}")
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    n, d0, num_classes = meta["n"], meta["d0"], meta["num_classes"]
    edges = np.loadtxt(os.path.join(directory, "edges.csv"),
                       dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
    if edges.size == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    features = np.loadtxt(os.path.join(directory, "features.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
    labels = np.loadtxt(os.path.join(directory, "labels.csv"),
                        dtype=np.int64, skiprows=1, ndmin=1)
    if features.shape != (n, d0):
        raise GraphError("features do not match meta record")
    if labels.shape != (n,):
        raise GraphError("labels do not match meta record")
    graph = build_graph(n, edges, features, labels)
    return with_num_classes(graph, num_classes)
