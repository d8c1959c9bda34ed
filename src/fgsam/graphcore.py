"""Graph container, propagation operators, CSBM synthesis and file I/O."""

import functools
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


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
    # key -> a value made on the first request and shared by every later
    # one, filled by `memo`
    _memo: dict = field(default_factory=dict, init=False, repr=False,
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
        operator of this graph (`memo` key `("matrix", scheme)`). Its
        arrays are read-only, so an in-place change such as `sort_indices`
        raises instead of re-ordering the products of every later run on
        the graph."""
        return self.memo(("matrix", scheme),
                         lambda: _read_only(_BUILDERS[scheme](self)))

    def memo(self, key, make):
        """`make()`, called on the first request for `key` and shared by
        every later one on this graph, for as long as the graph lives: the
        normalized matrices (`propagation_matrix`) and each run's set-up,
        its tasks, last-layer slices and layer-0 plan (`fsnc.run_setup`).
        The caller's `key` must hold every input that decides the result,
        and its arrays must be read-only, as every holder of the key reads
        the same ones."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def adjacency(self) -> sp.csr_matrix:
        """The 0/1 adjacency matrix in CSR. The propagation matrices are
        built from pair keys without it; `perfbench/tracing.py` names it
        as a span target."""
        if self.num_edges == 0:
            return sp.csr_matrix((self.n, self.n))
        u, v = self.edges[:, 0], self.edges[:, 1]
        row = np.concatenate([u, v])
        col = np.concatenate([v, u])
        data = np.ones(row.shape[0])
        return sp.csr_matrix((data, (row, col)), shape=(self.n, self.n))


def _read_only(mat: sp.spmatrix) -> sp.spmatrix:
    for array in (mat.data, mat.indices, mat.indptr):
        array.flags.writeable = False
    return mat


def build_graph(n, edges, features, labels) -> Graph:
    """A checked `Graph`: edges as distinct (min, max) pairs in
    lexicographic order (`_dedup_pairs`), reversed and repeated pairs
    merged; edges already in that form, as `generate_csbm`'s dense path
    gives them, skip the sort. Invalid input raises one `GraphError`; the
    features are counted for non-finite values only when their sum is not
    finite, as one such value makes the sum non-finite."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
        raise GraphError(f"edges must have shape (E, 2), got shape {edges.shape}")
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(f"features must have {n} rows, got shape {features.shape}")
    # a sum that overflows gets counted too, and passes
    if not np.isfinite(features.sum()):
        bad = features.size - np.count_nonzero(np.isfinite(features))
        if bad:
            raise GraphError(f"features must be finite, got {bad} "
                             f"non-finite values")
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
    structured view of the rows, and hashes the keys). Keys that already
    ascend strictly are distinct and sorted, so their (min, max) columns
    are returned without the sort.
    """
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keys = u * n + v
    if (keys[1:] > keys[:-1]).all():
        return np.column_stack([u, v])
    keys = np.sort(keys)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return np.column_stack([keys // n, keys % n])


def with_num_classes(graph: Graph, num_classes: int) -> Graph:
    if graph.labels.size and graph.labels.max() >= num_classes:
        raise GraphError("label out of declared class range")
    return Graph(graph.n, graph.features, graph.edges, graph.labels, num_classes)


SCHEMES = ("gcn-sym", "mean-neighbors", "identity")


class Slice(NamedTuple):
    """A block of a graph's matrix A, cut by `PropagationOperator.cut_slice`,
    the one function that cuts one: `matrix` is the CSR slice A[rows] with
    all n columns (`cols` None) or A[rows][:, cols] with the sorted columns
    A[rows] reads, each row's entries in A's order. A layer-0 plan
    (`PropagationOperator.cut_plan`) is a wide slice whose `matrix` is CSC
    where its rows ascend. Its arrays are read-only, so a slice may be
    shared by every run on the graph; each use wraps it in an operator of
    its own (`PropagationOperator.wrap`)."""

    rows: np.ndarray
    matrix: sp.csr_matrix | sp.csc_matrix
    cols: np.ndarray | None


def _product(matrix: sp.csr_matrix | sp.csc_matrix, x: np.ndarray,
             transpose: bool = False) -> np.ndarray:
    """`matrix @ x`, or its transpose times `x` with `transpose`, for a CSR
    or CSC `matrix` and a float64 2-D `x`, the same bits: scipy's kernel
    called with the arguments scipy's own product passes it, without the
    dispatch around it. scipy's transpose of a CSR matrix is the CSC matrix
    of the same three arrays with the shape swapped, so the transpose
    product runs `csc_matvecs` on the CSR arrays themselves and no CSC
    matrix is made.

    `csr_matvecs` sums each output row over its stored entries in their
    stored order. `csc_matvecs` reads each row of `x` once, in order, and
    adds it into every output row that holds its column, so each output
    row sums in ascending column order: the same bits as the CSR kernel on
    a matrix whose rows ascend."""
    rows, cols = matrix.shape
    if transpose:
        rows, cols = cols, rows
    matvecs = (_sparsetools.csc_matvecs if (matrix.format == "csc")
               != transpose else _sparsetools.csr_matvecs)
    out = np.zeros((rows, x.shape[1]))
    matvecs(rows, cols, x.shape[1], matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), out.ravel())
    return out


@dataclass
class PropagationOperator:
    """Sparse propagation matrix; the identity scheme bypasses the matmul.

    The matrix of a graph's operator is n x n, read-only and shared by
    every operator of the graph (`Graph.propagation_matrix`). A block's
    operator (`wrap` of a `cut_slice` or `cut_plan`) holds the slice's
    matrix and counts its products on the operator it was cut from.
    """

    scheme: str
    # None for identity; CSC only for a layer-0 plan's block (`cut_plan`)
    matrix: sp.csr_matrix | sp.csc_matrix | None
    apply_count: int = 0          # message-passing applications (identity not counted)
    # A @ x for the last network input x, made by `fill_input`:
    # (x, product, row-to-slot map or None)
    _input_memo: tuple = field(default=None, init=False, repr=False,
                               compare=False)
    # the operator whose apply_count a block's products add to
    _source: "PropagationOperator" = field(default=None, repr=False,
                                           compare=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.scheme == "identity":
            return x
        (self if self._source is None else self._source).apply_count += 1
        return _product(self.matrix, x)

    def propagate_input(self, x: np.ndarray, rows=None) -> np.ndarray:
        """`apply(x)` for the network input `x`, or its `rows` (any order,
        repeats allowed), read from the memo `fill_input` made: A @ x does
        not depend on the parameters, so a run fills it once. The memo is
        keyed by the identity of `x` and holds `x`, so the identity cannot
        be recycled (graph arrays are immutable after construction); the
        full product is read-only, as every forward shares it. A read the
        memo cannot serve raises `GraphError`. The identity operator
        returns `x` or `x[rows]`."""
        if self.scheme == "identity":
            return x if rows is None else x[rows]
        memo = self._input_memo
        if memo is not None and memo[0] is x:
            _, product, slot = memo
            if slot is None:
                return product if rows is None else product[rows]
            if rows is not None:
                at = slot[rows]
                if (at >= 0).all():
                    return product[at]
        miss = ("no A.X memo" if memo is None
                else "the A.X memo is of another input" if memo[0] is not x
                else "a compact A.X memo holds only its rows" if rows is None
                else "a row lies outside the compact A.X memo")
        raise GraphError(f"{miss}; call fill_input before the forward")

    def fill_input(self, x: np.ndarray, piece: Slice = None) -> None:
        """Make the memo of `propagate_input` for `x` with one product:
        without `piece`, the full product, by the CSR kernel; given the
        layer-0 plan `piece` (`cut_plan`) of distinct rows, a compact memo
        of those rows and an n-long row-to-slot map. The plan keeps each
        row's entries in A's order and all n columns, and its CSC form is
        read by the column kernel only where those rows ascend (`_product`),
        so a row is the same bits as that row of the full product. It may be
        one that every run on the graph shares (`fsnc.run_setup`): it is
        only read, and the slot map and product belong to this operator.
        The identity operator fills nothing."""
        if self.scheme == "identity":
            return
        slot = None
        if piece is None:
            product = self.apply(x)
        else:
            slot = np.full(x.shape[0], -1, dtype=np.int64)
            slot[piece.rows] = np.arange(piece.rows.size)
            product = self.wrap(piece).apply(x)
        product.flags.writeable = False
        self._input_memo = (x, product, slot)

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Multiply by the transpose (needed for reverse-mode gradients).

        scipy's CSC kernel reads the CSR arrays as those of A^T
        (`_product`). It adds into every output row in ascending order of
        the source row, the order of each row of a sorted CSR copy of A^T,
        and so of a graph's `gcn-sym` matrix itself, which is symmetric bit
        for bit with sorted rows.
        """
        if self.scheme == "identity":
            return x
        return _product(self.matrix, x, transpose=True)

    def cut_slice(self, rows: np.ndarray, narrow: bool) -> Slice:
        """The `Slice` of the block of A that produces only `rows` (an
        integer array, any order), cut from the CSR arrays: A[rows] with all
        n columns, or where `narrow` A[rows][:, cols] with `cols` the sorted
        columns A[rows] reads. Each row keeps its entries in A's order, so a
        row of `wrap(piece).apply(h)`, with `h[cols]` for a narrow slice, is
        the same row of `A @ h`, bit for bit. Every array is read-only, and
        the cut builds one scipy matrix."""
        a = self.matrix
        starts = a.indptr[rows]
        counts = a.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        if narrow:
            cols, indices = np.unique(a.indices[pos], return_inverse=True)
            cols.flags.writeable = False
            width = cols.size
        else:
            cols, indices, width = None, a.indices[pos], a.shape[1]
        matrix = _read_only(sp.csr_matrix((a.data[pos], indices, indptr),
                                          shape=(rows.size, width)))
        return Slice(rows, matrix, cols)

    def cut_plan(self, rows: np.ndarray) -> Slice:
        """The layer-0 plan of the distinct `rows`: the wide slice A[rows]
        (`cut_slice(rows, False)`), made column-major (CSC) once here where
        every row stores its columns in ascending order, as every row of
        `gcn-sym` does, and of `mean-neighbors` on a graph with an isolated
        node. Its fill (`fill_input`) then reads each row of the input once,
        in order, instead of one scattered row per stored entry, with the
        same bits. A plan over descending rows stays CSR. Every array is
        read-only."""
        piece = self.cut_slice(rows, False)
        if not piece.matrix.has_sorted_indices:
            return piece
        return piece._replace(matrix=_read_only(piece.matrix.tocsc()))

    def wrap(self, piece: Slice) -> "PropagationOperator":
        """The operator of a slice (`cut_slice` or `cut_plan`), whose
        products count on this operator."""
        return PropagationOperator(self.scheme, piece.matrix, _source=self)

    def row_nnz(self, rows: np.ndarray) -> int:
        """Stored entries of A[rows], read from the row pointers."""
        indptr = self.matrix.indptr
        return int((indptr[rows + 1] - indptr[rows]).sum())

    @property
    def is_identity(self) -> bool:
        return self.scheme == "identity"


def normalize(graph: Graph, scheme: str) -> PropagationOperator:
    """A fresh operator over the graph's shared `scheme` matrix: its
    `apply_count` and A.X memo belong to this operator alone, so A.X lives
    no longer than the run that holds the operator."""
    if scheme not in SCHEMES:
        raise GraphError(f"unknown scheme {scheme!r}")
    if scheme == "identity":
        return PropagationOperator("identity", None)
    return PropagationOperator(scheme, graph.propagation_matrix(scheme))


def _key_sorted_pattern(n: int, keys: np.ndarray, count: np.ndarray):
    """Row pointers and column indices of the n x n matrix whose stored
    entries are the distinct int64 `keys`, entry (r, c) being the key
    r * n + c (`_dedup_pairs`' encoding), with `count[r]` of them in row r.
    One sort of the keys lays every row out in ascending column order. Both
    arrays have the index dtype scipy gives a matrix of this size, int32
    while n and the entry count fit in it."""
    index = (np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max
             else np.int64)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(count, out=indptr[1:])
    cols = np.sort(keys) - np.repeat(np.arange(0, n * n, n), count)
    return indptr, cols.astype(index)


def _gcn_sym_matrix(graph: Graph) -> sp.csr_matrix:
    """D~^{-1/2} (A + I) D~^{-1/2} in CSR, built from one sort of the pair
    keys of A + I (`_key_sorted_pattern`): each row's columns come out in
    ascending order, the order of scipy's COO-to-CSR conversion of the
    pairs, and the row lengths are the degrees of A + I."""
    n = graph.n
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    count = graph.degrees() + 1
    indptr, cols = _key_sorted_pattern(
        n, np.concatenate([u * n + v, v * n + u, np.arange(n) * (n + 1)]),
        count)
    dinv = 1.0 / np.sqrt(count)
    return sp.csr_matrix((np.repeat(dinv, count) * dinv[cols], cols, indptr),
                         shape=(n, n))


def _mean_neighbors_matrix(graph: Graph) -> sp.csr_matrix:
    """D^{-1} A, isolated nodes keeping their own features (self entry 1),
    in CSR from one sort of pair keys (`_key_sorted_pattern`). Each row
    keeps the column order of scipy's `diags(1 / deg) @ A` product:
    descending, from the key r * n + (n - 1 - c); when any node is
    isolated, ascending, the order of that product's sum with the isolated
    nodes' unit entries. A sorted rebuild would change the order every row
    of a product sums in, and with it the bits of every trace."""
    n = graph.n
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    deg = graph.degrees()
    isolated = np.flatnonzero(deg == 0)
    if isolated.size:
        keys = [u * n + v, v * n + u, isolated * (n + 1)]
    else:
        keys = [u * n + (n - 1 - v), v * n + (n - 1 - u)]
    count = np.maximum(deg, 1)
    indptr, cols = _key_sorted_pattern(n, np.concatenate(keys), count)
    if not isolated.size:
        cols = n - 1 - cols
    return sp.csr_matrix((np.repeat(1.0 / count, count), cols, indptr),
                         shape=(n, n))


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
    triangle of an m x m matrix, `np.triu_indices(m, k=1)[·][index]` as
    int64 arrays, computed without building the m * (m - 1) / 2 pairs.

    Row i starts at pair s(i) = i * (b - i) / 2 with b = 2m - 1, so the row
    of a pair is the floor of the smaller root of s(i) = index, estimated
    from a float square root. Near a row start the rounding of b² - 8 index
    (above 2**53 once m > 2**26) and of its root can put the estimate one
    row off either way; an exact integer comparison with s(i) and s(i + 1)
    corrects it."""
    b = 2 * m - 1
    row = np.floor((b - np.sqrt(b * b - 8 * index)) / 2).astype(np.int64)
    row -= row * (b - row) // 2 > index
    row += (row + 1) * (b - row - 1) // 2 <= index
    return row, index - row * (b - row) // 2 + row + 1


def generate_csbm(params: CsbmParams) -> Graph:
    """Sample a K-class CSBM graph: Gaussian features around equidistant
    class means, each unordered pair an edge with probability p (same
    class) or q (different class). Pure function of params.

    Each class's mean is added in place to its block of the drawn noise,
    the same additions as `noise + means[labels]` without that n x l copy.
    Both paths draw pair indices into an upper triangle and decode them
    arithmetically (`_upper_pair`), so no pair table is built. Up to
    `_DENSE_PAIR_LIMIT` nodes one uniform is drawn per pair of the graph,
    against a probability laid out row by row from the class blocks: row
    i's pairs with the rest of its block take p, the others q. The kept
    indices ascend, so the edges come out distinct and in lexicographic
    order. Above the limit each block's pairs are counted, then drawn by
    index."""
    K, npc = params.K, params.nodes_per_class
    n = K * npc
    rng = np.random.default_rng(params.seed)
    means = simplex_means(K, params.D, params.l)
    labels = np.repeat(np.arange(K), npc)
    features = rng.standard_normal((n, params.l))
    blocks = features.reshape(K, npc, params.l)    # a view, one class each
    blocks += means[:, None, :]
    if n <= _DENSE_PAIR_LIMIT:
        # row i pairs i with every j > i: the first (labels[i] + 1) * npc
        # - i - 1 of them share its class block, the rest do not
        rest = np.arange(n - 1, -1, -1)
        same = (labels + 1) * npc - np.arange(n) - 1
        counts = np.column_stack([same, rest - same]).ravel()
        prob = np.repeat(np.tile([params.p, params.q], n), counts)
        kept = np.flatnonzero(rng.random(prob.size) < prob)
        edges = np.column_stack(_upper_pair(n, kept))
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
    """The graph `save_graph` wrote to `directory`. A missing or malformed
    file, or a count in `meta.json` that is not a JSON integer, raises one
    `GraphError` naming the file."""
    for name in ("edges.csv", "features.csv", "labels.csv", "meta.json"):
        if not os.path.exists(os.path.join(directory, name)):
            raise GraphError(f"missing {name} in {directory}")
    path = os.path.join(directory, "meta.json")
    try:
        with open(path) as fh:
            meta = json.load(fh)
        n, d0, num_classes = meta["n"], meta["d0"], meta["num_classes"]
    except (ValueError, KeyError, TypeError):
        raise GraphError(f"{path}: expected a JSON object with n, d0 and "
                         f"num_classes") from None
    for key in ("n", "d0", "num_classes"):
        if type(meta[key]) is not int:     # bool is a subclass of int
            raise GraphError(f"{path}: {key} must be an integer, got "
                             f"{meta[key]!r}")
    edges = _read_table(directory, "edges.csv", dtype=np.int64,
                        delimiter=",", ndmin=2)
    if edges.size == 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    features = _read_table(directory, "features.csv", delimiter=",",
                           ndmin=2)
    labels = _read_table(directory, "labels.csv", dtype=np.int64, ndmin=1)
    if features.shape != (n, d0):
        raise GraphError("features do not match meta record")
    if labels.shape != (n,):
        raise GraphError("labels do not match meta record")
    graph = build_graph(n, edges, features, labels)
    return with_num_classes(graph, num_classes)


def _read_table(directory: str, name: str, **kwargs) -> np.ndarray:
    """The rows of a graph's CSV file below its header line. A file with
    no rows, such as an edgeless graph's `edges.csv`, is valid and reads
    as an empty array without numpy's no-data warning."""
    path = os.path.join(directory, name)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            return np.loadtxt(path, skiprows=1, **kwargs)
    except ValueError as exc:
        raise GraphError(f"{path}: {exc}") from None
