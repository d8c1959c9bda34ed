"""Graph container, propagation operators, CSBM synthesis, noise injection and file I/O."""

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

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def d0(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if self.num_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

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
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(f"features must have {n} rows, got shape {features.shape}")
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
        edges = np.sort(edges, axis=1)
        edges = np.unique(edges, axis=0)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    return Graph(n=n, features=features, edges=edges, labels=labels,
                 num_classes=num_classes)


def with_num_classes(graph: Graph, num_classes: int) -> Graph:
    if graph.labels.size and graph.labels.max() >= num_classes:
        raise GraphError("label out of declared class range")
    return Graph(graph.n, graph.features, graph.edges, graph.labels, num_classes)


SCHEMES = ("gcn-sym", "mean-neighbors", "identity")


@dataclass
class PropagationOperator:
    """Sparse n x n propagation matrix; the identity scheme bypasses the matmul."""

    scheme: str
    matrix: sp.csr_matrix | None  # None for identity
    apply_count: int = 0          # message-passing applications (identity not counted)
    # (x, A @ x) for the last network input seen by propagate_input
    _input_memo: tuple = field(default=None, init=False, repr=False,
                              compare=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.scheme == "identity":
            return x
        self.apply_count += 1
        return self.matrix @ x

    def propagate_input(self, x: np.ndarray) -> np.ndarray:
        """`apply(x)` for the network input, computed once per input array.

        A one-slot memo keyed by the identity of `x`: A @ x does not depend
        on the parameters, so the first layer of every forward over the same
        features reuses one product. The memo holds `x` itself, so its
        identity cannot be recycled, and relies on `x` not being mutated
        (graph arrays are immutable after construction). The cached product
        is read-only because every forward shares it.
        """
        if self.scheme == "identity":
            return x
        memo = self._input_memo
        if memo is None or memo[0] is not x:
            out = self.apply(x)
            out.flags.writeable = False
            memo = (x, out)
            self._input_memo = memo
        return memo[1]

    def apply_t(self, x: np.ndarray) -> np.ndarray:
        """Multiply by the transpose (needed for reverse-mode gradients)."""
        if self.scheme == "identity":
            return x
        return self.matrix.T @ x

    @property
    def is_identity(self) -> bool:
        return self.scheme == "identity"


def normalize(graph: Graph, scheme: str) -> PropagationOperator:
    if scheme not in SCHEMES:
        raise GraphError(f"unknown scheme {scheme!r}")
    if scheme == "identity":
        return PropagationOperator("identity", None)
    adj = graph.adjacency()
    if scheme == "mean-neighbors":
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
        return PropagationOperator(scheme, sp.csr_matrix(mat))
    # gcn-sym: D~^{-1/2} (A + I) D~^{-1/2}
    adj_t = adj + sp.identity(graph.n, format="csr")
    deg = np.asarray(adj_t.sum(axis=1)).ravel()
    dinv = 1.0 / np.sqrt(deg)
    mat = sp.diags(dinv) @ adj_t @ sp.diags(dinv)
    return PropagationOperator(scheme, sp.csr_matrix(mat))


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
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise GraphError("edge probabilities must lie in [0, 1]")
        if self.D <= 0:
            raise GraphError("mean distance D must be positive")
        if self.l < self.K:
            raise GraphError("feature dimension must be >= class count")


def simplex_means(K: int, D: float, l: int) -> np.ndarray:
    """K equidistant class means in R^l: scaled standard basis vectors."""
    if l < K:
        raise GraphError(f"need l >= K, got l={l}, K={K}")
    if D <= 0:
        raise GraphError("D must be positive")
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
        iu, ju = np.triu_indices(rows.size, k=1)
        return rows[iu[chosen]], rows[ju[chosen]]
    return rows[chosen // cols.size], cols[chosen % cols.size]


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


def inject_feature_noise(graph: Graph, sigma: float, seed: int) -> Graph:
    if sigma < 0:
        raise GraphError("sigma must be non-negative")
    if sigma == 0:
        return graph
    rng = np.random.default_rng(seed)
    noisy = graph.features + sigma * rng.standard_normal(graph.features.shape)
    return Graph(graph.n, noisy, graph.edges, graph.labels, graph.num_classes)


def inject_edge_noise(graph: Graph, ratio: float, seed: int) -> Graph:
    if ratio < 0:
        raise GraphError("ratio must be non-negative")
    target = int(ratio * graph.num_edges)
    if target == 0:
        return graph
    max_edges = graph.n * (graph.n - 1) // 2
    if graph.num_edges + target > max_edges:
        raise GraphError("not enough non-edges to add")
    rng = np.random.default_rng(seed)
    existing = set(map(tuple, graph.edges))
    new_edges = []
    rejections = 0
    while len(new_edges) < target:
        u = int(rng.integers(graph.n))
        v = int(rng.integers(graph.n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in existing:
            rejections += 1
            if rejections >= 100 * target:
                raise GraphError("edge noise rejection limit exceeded")
            continue
        rejections = 0
        existing.add((u, v))
        new_edges.append((u, v))
    edges = np.vstack([graph.edges, np.array(new_edges, dtype=np.int64)])
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    return Graph(graph.n, graph.features, edges, graph.labels, graph.num_classes)


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
