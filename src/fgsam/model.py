"""Shared-weight L-layer GCN and its PeerMLP: forward pass, softmax
cross-entropy and exact reverse-mode gradients over a flat parameter vector.

The same code path serves the GNN (real propagation operator) and the
PeerMLP (identity operator); removing message passing is literally just
swapping the operator.
"""

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graphcore import Graph, PropagationOperator, Slice


class ModelError(ValueError):
    pass


def uniform_dims(d0: int, hidden: int, out: int, layers: int) -> list[int]:
    """Layer widths d0 -> hidden x (L-1) -> out."""
    if layers < 1:
        raise ModelError("need at least one layer")
    return [d0] + [hidden] * (layers - 1) + [out]


@dataclass
class ModelParams:
    """Per-layer weight matrices and bias vectors with a canonical flat view.

    Flat order: W1 (row-major), b1, W2, b2, ... A stack of K weight vectors,
    a (K, P) flat array, gives a leading K axis to every matrix and bias,
    and every forward, head and backward below runs each weight of the
    stack as it runs one alone: the 1-D case is the stack without its axis.
    """

    weights: list
    biases: list

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[-2]] + [w.shape[-1] for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def flatten(self) -> np.ndarray:
        shape = self.weights[0].shape[:-2] + (-1,)
        return _concat(self.weights, [b.reshape(shape) for b in self.biases])

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: list[int]) -> "ModelParams":
        """Weights and biases as views of `flat`, one vector or a (K, P)
        stack, which callers do not mutate while the returned params are in
        use. Each bias is a 1 x d row (K x 1 x d for a stack), which adds to
        every row of its layer's output."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim not in (1, 2):
            raise ModelError("flat parameters must be a vector or a stack")
        lead = flat.shape[:-1]
        weights, biases, off = [], [], 0
        for din, dout in zip(dims[:-1], dims[1:]):
            weights.append(flat[..., off:off + din * dout].reshape(
                lead + (din, dout)))
            off += din * dout
            biases.append(flat[..., None, off:off + dout])
            off += dout
        if flat.shape[-1] != off:
            raise ModelError(f"flat vector must have length {off}")
        return cls(weights, biases)


def _concat(weights, biases) -> np.ndarray:
    """The flat order of per-layer matrices and bias vectors, on the last
    axis."""
    shape = weights[0].shape[:-2] + (-1,)
    parts = []
    for w, b in zip(weights, biases):
        parts.append(w.reshape(shape))
        parts.append(b)
    return np.concatenate(parts, axis=-1)


def num_params(dims: list[int]) -> int:
    return sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))


def init_params(dims: list[int], seed) -> ModelParams:
    """Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-bound, bound, size=(din, dout)))
        biases.append(np.zeros(dout))
    return ModelParams(weights, biases)


@dataclass
class Activations:
    inputs: list            # per layer: what W^(l) multiplies, A H or H
    preacts: list           # per layer: Z^(l)
    logits: np.ndarray      # final layer output, one row per output row
    blocks: list            # per layer: the Block it ran on


def propagates_after(l: int, w: np.ndarray) -> bool:
    """Whether layer l propagates after its transform, Z = A (H W) + b,
    instead of Z = (A H) W + b: a layer above the first whose output is
    narrower than its input, so that its SpMMs move d_out columns, not
    d_in. Its `Activations.inputs` entry is then H, otherwise A H. Layer 0
    always propagates first, to read the operator's memo of A X."""
    return l > 0 and w.shape[-1] < w.shape[-2]


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of `z`. Nothing in the package calls it: it is
    kept only as a target of the benchmark's tracer (`perfbench/tracing.py`);
    the cross-entropy's softmax is computed inside `ce_head`."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class LossSpec:
    """Cross-entropy on some rows of a forward's logits: `indices` are
    those rows, which are node ids when the forward outputs all n rows, and
    `labels` their classes."""

    indices: np.ndarray     # distinct row indices
    labels: np.ndarray      # class of each row, aligned with indices
    weight_decay: float = 0.0
    # read-only `labels * m + arange(m)`, for `ce_head`'s C x m logits
    label_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        m = self.indices.size
        if m == 0:
            raise ModelError("empty index subset")
        if np.unique(self.indices).size != m:
            raise ModelError("duplicate indices in loss spec")
        if self.labels.shape != self.indices.shape or self.labels.min() < 0:
            raise ModelError("labels must be classes aligned with indices")
        if self.weight_decay < 0:
            raise ModelError("weight decay must be non-negative")
        self.label_index = self.labels * m + np.arange(m)
        self.label_index.flags.writeable = False


def loss_spec_from_labels(indices, labels, num_classes, weight_decay=0.0) -> LossSpec:
    """The spec of the nodes `indices`, of classes `labels[indices]`."""
    indices = np.asarray(indices, dtype=np.int64)
    spec = LossSpec(indices, np.asarray(labels)[indices], weight_decay)
    if spec.labels.max() >= num_classes:
        raise ModelError(f"labels must be below num_classes {num_classes}")
    return spec


class Block(NamedTuple):
    """Layer l of a forward: `rows` are the rows S_l it outputs (None: all
    n rows), and `op` propagates the rows that layer l-1 output into them.
    Layer 0 reads rows S_0 of the run's A.X memo instead
    (`PropagationOperator.fill_input`), so its `op` is the graph's operator."""

    rows: np.ndarray | None
    op: PropagationOperator


def receptive_field(operator: PropagationOperator, targets, layers: int,
                    top: Slice = None) -> list[Block]:
    """The exact per-layer blocks of a forward whose last layer outputs only
    `targets`, in their order: S_{L-1} = targets and S_{l-1} = the columns
    of A[S_l], each layer above the first on the narrow slice
    `cut_slice(S_l, True)`. `top` is the last layer's, if it was cut
    beforehand; the layers below are cut here. A wide `top`
    (`cut_slice(rows, False)`) reads all n columns, so the walk stops there
    and every layer below it outputs all n rows. The PeerMLP (identity
    operator) reads `targets` at every layer and cuts nothing."""
    rows = np.asarray(targets, dtype=np.int64)
    if operator.is_identity:
        return [Block(rows, operator)] * layers
    blocks = [Block(None, operator)] * layers
    for l in range(layers - 1, 0, -1):
        piece = (top if l == layers - 1 and top is not None
                 else operator.cut_slice(rows, True))
        blocks[l] = Block(rows, operator.wrap(piece))
        rows = piece.cols
        if rows is None:
            return blocks
    blocks[0] = Block(rows, operator)
    return blocks


def worth_slicing(operator: PropagationOperator, targets,
                  layers: int) -> bool:
    """Whether a forward over `targets` runs on their receptive field.

    The rule is read from the row pointers in O(|targets|): slice while
    A[targets] holds fewer stored entries than A has rows. Above that, the
    receptive field is a large share of the graph, and cutting it costs
    more than the rows it saves. A one-layer forward only gathers rows of
    A.X and the PeerMLP reads only the target rows, so both always slice.
    """
    return (layers == 1 or operator.is_identity
            or operator.row_nnz(targets) < operator.matrix.shape[0])


def blocks_for(operator: PropagationOperator, targets, layers: int,
               top: Slice = None) -> list[Block] | None:
    """The blocks of a forward whose loss reads `targets`: their
    `receptive_field` when `worth_slicing`, otherwise None, a forward over
    all n rows. Given the last layer's slice, cut beforehand by
    `PropagationOperator.cut_slice` as a training episode's is, the forward
    is the `receptive_field` of that slice's rows: a narrow slice of
    `targets`, or a wide one of their sorted distinct rows."""
    if top is None and not worth_slicing(operator, targets, layers):
        return None
    return receptive_field(operator, targets if top is None else top.rows,
                           layers, top)


def top_blocks(operator: PropagationOperator, rows,
               layers: int) -> list[Block]:
    """The blocks of a forward whose last layer outputs only `rows`, in
    their order, and whose lower layers output all n rows: the
    `receptive_field` of the wide slice A[rows] (`cut_slice(rows, False)`).
    A one-layer forward reads those rows of the A.X memo, and the PeerMLP
    (identity operator) reads `rows` at every layer, so neither cuts.

    With ascending `rows`, each transpose product sums every row in the
    order of the full product plus exact zeros, so the gradient of a loss
    on these rows is the full-graph path's, bit for bit; other orders move
    it by about 1e-15."""
    rows = np.asarray(rows, dtype=np.int64)
    wide = layers > 1 and not operator.is_identity
    return receptive_field(operator, rows, layers,
                           operator.cut_slice(rows, False) if wide else None)


def forward(params: ModelParams, graph: Graph,
            operator: PropagationOperator, blocks=None) -> Activations:
    return forward_features(params, graph.features, operator, blocks)


def forward_features(params: ModelParams, x: np.ndarray,
                     operator: PropagationOperator,
                     blocks=None) -> Activations:
    """Forward pass over all n rows, or over the rows of `blocks` (see
    `receptive_field`), in which case row i of every output is row
    `blocks[l].rows[i]` of the full forward. The activations record the
    blocks (None: the n-row list), and the backward runs on them. Layer 0
    reads A.X from the memo the caller filled (`PropagationOperator`'s
    `fill_input`). Stacked params (a leading K axis) give every output that
    axis; their layers above the first run only under the identity
    operator, the PeerMLP's."""
    if x.shape[-1] != params.weights[0].shape[-2]:
        raise ModelError(
            f"feature dim {x.shape[-1]} != model input dim {params.dims[0]}")
    if blocks is None:
        blocks = [Block(None, operator)] * params.num_layers
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        rows, op = blocks[l]
        # `@` of a stack runs one GEMM per weight, each the 1-D case's
        if propagates_after(l, w):
            m = h
            z = op.apply(h @ w)
        else:
            # layer 0 reads the operator's memo of the fixed input's product
            m = operator.propagate_input(h, rows) if l == 0 else op.apply(h)
            z = m @ w
        z += b
        inputs.append(m)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return Activations(inputs, preacts, preacts[-1], blocks)


def ce_head(logits: np.ndarray, label_index: np.ndarray,
            compute_grad: bool = True):
    """Mean softmax cross-entropy of the m rows of `logits` (m x C) against
    their classes, given as a spec's `label_index`, and its gradient w.r.t.
    the logits as a C-contiguous m x C array (None without `compute_grad`).
    The head reads the logits class-major: the max, the exponentials, their
    sums and the log-sum-exp are computed once, each reducing over the
    class axis, and the gradient (softmax - one-hot) / m reuses the
    exponentials in place. Logits with a leading weight axis (K x m x C)
    give K values and a K x m x C gradient, each weight's the same bits as
    alone.

    Up to C = 7 classes the sums are bit for bit those of a reduction over
    the classes of the row-major logits; from C = 8 numpy sums such rows
    pairwise, and the two differ by about 1e-15 relative."""
    logits_t = np.ascontiguousarray(logits.mT)
    m = logits_t.shape[-1]
    zmax = logits_t.max(axis=-2, keepdims=True)
    e = logits_t - zmax
    np.exp(e, out=e)
    sums = e.sum(axis=-2, keepdims=True)
    lse = np.log(sums)
    lse += zmax
    value = np.mean(lse[..., 0, :] - pick(logits_t, label_index), axis=-1)
    if not compute_grad:
        return value, None
    e /= sums
    # the -1 at each true class, one matrix of a stack at a time: a 1-D
    # index serves a matrix faster than a broadcast one serves the stack
    for matrix in e.reshape(-1, e.shape[-2] * m):
        np.subtract.at(matrix, label_index, 1.0)
    e /= m
    return value, np.ascontiguousarray(e.mT)


def pick(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`a.ravel()[index]` of each matrix (last two axes) of a C-contiguous
    stack `a`."""
    return a.reshape(a.shape[:-2] + (-1,)).take(index, -1)


def head_loss(params: ModelParams, activations: Activations, head, target,
              rows=None, weight_decay: float = 0.0,
              compute_grad: bool = True):
    """(loss, flat gradient or None) of a head on `rows` of a forward's
    logits (None: all of them, in their order), plus weight decay. Stacked
    params give a list of K losses and a (K, P) gradient.

    A head is `head(logits, target, compute_grad) -> (value, d_logits)`,
    with `d_logits` None without `compute_grad`: `ce_head` with a spec's
    `label_index`, or `fsnc.proto_head` with an episode; each takes logits
    with or without a leading weight axis. The head's gradient is
    scattered back to one row per logits row (the rows are distinct, so
    each gets 0.0 + its gradient) and backpropagated through the blocks of
    `activations`."""
    logits = activations.logits
    value, d = head(logits if rows is None else logits[..., rows, :], target,
                    compute_grad)
    if weight_decay:
        # one dot product per weight, as for a weight alone
        flat = params.flatten()
        value = value + weight_decay * np.vecdot(flat, flat)
    value = np.asarray(value).tolist()
    if not compute_grad:
        return value, None
    if rows is not None:
        d_out = np.zeros_like(logits)
        d_out[..., rows, :] += d
        d = d_out
    grad = backward_from_output(params, activations, d)
    if weight_decay:
        grad += 2.0 * weight_decay * flat
    return value, grad


def loss(activations: Activations, spec: LossSpec, params: ModelParams) -> float:
    """`ce_head` on the spec's rows of the logits, plus weight decay."""
    return head_loss(params, activations, ce_head, spec.label_index,
                     spec.indices, spec.weight_decay, compute_grad=False)[0]


# Rows above which one einsum sums a bias gradient faster than `sum`: 8
# against 19 us at 491 x 16, but 3.7 against 3.1 us at an episode's 26 x 16
# (one thread of a shared 2-vCPU x86-64 VM)
EINSUM_ROWS = 256


def bias_grad(dz: np.ndarray) -> np.ndarray:
    """`dz.sum(axis=-2)`, bit for bit. On a C-contiguous `dz` with more than
    `EINSUM_ROWS` rows and more than one column, one `einsum` adds the rows
    in order, as `sum` does there, in about a third of the time. `sum` adds
    a one-wide column pairwise, and other layouts in another order, so those
    keep `sum`."""
    if (dz.shape[-2] > EINSUM_ROWS and dz.shape[-1] > 1
            and dz.flags.c_contiguous):
        return np.einsum("...ij->...j", dz)
    return dz.sum(axis=-2)


def backward_from_output(params: ModelParams, activations: Activations,
                         d_out: np.ndarray) -> np.ndarray:
    """Backpropagate a gradient w.r.t. the final layer output down to the
    flat parameter vector, or to a (K, P) stack of them for stacked params,
    each layer through the operator of the block its forward ran on. The
    last layer has no nonlinearity, so d_out is also the gradient w.r.t.
    its preactivation. Bias gradients are `bias_grad`s, and the ReLU mask
    is applied in place to the fresh product dH, so neither `d_out` nor
    the activations are written."""
    grads_w = [None] * params.num_layers
    grads_b = [None] * params.num_layers
    dz = d_out
    for l in range(params.num_layers - 1, -1, -1):
        w = params.weights[l]
        op = activations.blocks[l].op
        after = propagates_after(l, w)
        # Z = A (H W) + b: one transpose product U = A^T dZ serves both
        # dW = H^T U and dH = U W^T
        u = op.apply_t(dz) if after else dz
        grads_w[l] = activations.inputs[l].mT @ u
        grads_b[l] = bias_grad(dz)
        if l > 0:
            # dH is new (apply_t's own product, or under the identity
            # operator the product it was given), so the mask writes into it
            dh = u @ w.mT if after else op.apply_t(dz @ w.mT)
            dz = np.multiply(dh, activations.preacts[l - 1] > 0, out=dh)
    return _concat(grads_w, grads_b)


def backward(params: ModelParams, graph: Graph, operator: PropagationOperator,
             spec: LossSpec) -> np.ndarray:
    """The gradient of `loss` from a forward over all n rows. Nothing in the
    package calls it: it is kept only as a target of the benchmark's tracer
    (`perfbench/tracing.py`)."""
    acts = forward(params, graph, operator)
    return backward_from_acts(params, acts, spec)


def backward_from_acts(params: ModelParams, acts: Activations,
                       spec: LossSpec) -> np.ndarray:
    """The gradient of `loss`, whose spec indexes the rows of the logits."""
    return head_loss(params, acts, ce_head, spec.label_index, spec.indices,
                     spec.weight_decay)[1]


_HEADER = struct.Struct("<4i")  # L, d0, h, C


def save_checkpoint(path: str, params: ModelParams, hidden: int) -> None:
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(params.num_layers, dims[0], hidden, dims[-1]))
        fh.write(params.flatten().astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ModelParams, int]:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        payload = fh.read()
    if len(header) != _HEADER.size:
        raise ModelError(f"checkpoint {path}: truncated header "
                         f"({len(header)} of {_HEADER.size} bytes)")
    layers, d0, hidden, out = _HEADER.unpack(header)
    if min(layers, d0, hidden, out) < 1:
        raise ModelError(f"checkpoint {path}: invalid header "
                         f"(L={layers}, d0={d0}, h={hidden}, C={out})")
    dims = uniform_dims(d0, hidden, out, layers)
    expected = 8 * num_params(dims)
    if len(payload) != expected:
        raise ModelError(f"checkpoint {path}: payload has {len(payload)} "
                         f"bytes, header needs {expected}")
    flat = np.frombuffer(payload, dtype="<f8")
    return ModelParams.from_flat(flat, dims), hidden
