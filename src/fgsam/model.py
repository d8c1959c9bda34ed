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

from .graphcore import Graph, PropagationOperator


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

    Flat order: W1 (row-major), b1, W2, b2, ...
    """

    weights: list
    biases: list

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: list[int]) -> "ModelParams":
        """Weights and biases as views of `flat`, which callers do not
        mutate while the returned params are in use."""
        flat = np.asarray(flat, dtype=np.float64)
        expected = num_params(dims)
        if flat.shape != (expected,):
            raise ModelError(f"flat vector must have length {expected}")
        weights, biases, off = [], [], 0
        for din, dout in zip(dims[:-1], dims[1:]):
            weights.append(flat[off:off + din * dout].reshape(din, dout))
            off += din * dout
            biases.append(flat[off:off + dout])
            off += dout
        return cls(weights, biases)


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


def propagates_after(l: int, w: np.ndarray) -> bool:
    """Whether layer l propagates after its transform, Z = A (H W) + b,
    instead of Z = (A H) W + b: a layer above the first whose output is
    narrower than its input, so that its SpMMs move d_out columns, not
    d_in. Its `Activations.inputs` entry is then H, otherwise A H. Layer 0
    always propagates first, to read the operator's memo of A X."""
    return l > 0 and w.shape[1] < w.shape[0]


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
    those rows, which are node ids when the forward outputs all n rows."""

    indices: np.ndarray     # distinct row indices
    targets: np.ndarray     # one-hot rows aligned with indices
    weight_decay: float = 0.0
    # the targets class-major (C x m, contiguous), as `ce_head` reads them
    targets_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.indices.size == 0:
            raise ModelError("empty index subset")
        if np.unique(self.indices).size != self.indices.size:
            raise ModelError("duplicate indices in loss spec")
        if self.targets.shape[0] != self.indices.size:
            raise ModelError("targets must align with indices")
        if self.weight_decay < 0:
            raise ModelError("weight decay must be non-negative")
        self.targets_t = np.ascontiguousarray(self.targets.T)


def loss_spec_from_labels(indices, labels, num_classes, weight_decay=0.0) -> LossSpec:
    indices = np.asarray(indices, dtype=np.int64)
    onehot = np.zeros((indices.size, num_classes))
    onehot[np.arange(indices.size), labels[indices]] = 1.0
    return LossSpec(indices, onehot, weight_decay)


class Block(NamedTuple):
    """Layer l of a forward that produces only some rows: `rows` are the
    rows S_l it outputs (None: all n rows), and `op` propagates the rows
    that layer l-1 output into them. Layer 0 reads rows S_0 of A.X from
    the operator's memo (`propagate_input`) instead, so its `op` is the
    graph's operator."""

    rows: np.ndarray | None
    op: PropagationOperator


def receptive_field(operator: PropagationOperator, targets,
                    layers: int) -> list[Block]:
    """The exact per-layer blocks of a forward whose last layer outputs only
    `targets`, in their order: S_{L-1} = targets and S_{l-1} = the columns
    of A[S_l]. The PeerMLP (identity operator) reads `targets` at every
    layer."""
    rows = np.asarray(targets, dtype=np.int64)
    blocks = [None] * layers
    for l in range(layers - 1, 0, -1):
        op, below = operator.restrict(rows)
        blocks[l] = Block(rows, op)
        rows = below
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


def blocks_for(operator: PropagationOperator, targets,
               layers: int) -> list[Block] | None:
    """`receptive_field` when `worth_slicing`, otherwise None (a forward
    over all n rows)."""
    if not worth_slicing(operator, targets, layers):
        return None
    return receptive_field(operator, targets, layers)


def top_blocks(operator: PropagationOperator, rows,
               layers: int) -> list[Block]:
    """The blocks of a forward whose last layer outputs only `rows`, in
    their order, and whose lower layers output all n rows. The last layer
    propagates through the row slice A[rows] (`row_block`), which keeps all
    n columns, so the layer below is read as it is; a one-layer forward
    reads those rows of the A.X memo."""
    rows = np.asarray(rows, dtype=np.int64)
    top = operator if layers == 1 else operator.row_block(rows)
    return [Block(None, operator)] * (layers - 1) + [Block(rows, top)]


def forward(params: ModelParams, graph: Graph,
            operator: PropagationOperator, blocks=None) -> Activations:
    return forward_features(params, graph.features, operator, blocks)


def forward_features(params: ModelParams, x: np.ndarray,
                     operator: PropagationOperator,
                     blocks=None) -> Activations:
    """Forward pass over all n rows, or over the rows of `blocks` (see
    `receptive_field`), in which case row i of every output is row
    `blocks[l].rows[i]` of the full forward."""
    if x.shape[1] != params.dims[0]:
        raise ModelError(
            f"feature dim {x.shape[1]} != model input dim {params.dims[0]}")
    if blocks is None:
        blocks = [Block(None, operator)] * params.num_layers
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        rows, op = blocks[l]
        if propagates_after(l, w):
            m = h
            z = op.apply(h @ w) + b
        else:
            # layer 0 reads the operator's memo of the fixed input's product
            m = operator.propagate_input(h, rows) if l == 0 else op.apply(h)
            z = m @ w + b
        inputs.append(m)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return Activations(inputs=inputs, preacts=preacts, logits=preacts[-1])


def ce_head(logits: np.ndarray, targets_t: np.ndarray,
            compute_grad: bool = True):
    """Mean softmax cross-entropy of the m rows of `logits` (m x C) against
    the class-major targets `targets_t` (C x m), and its gradient w.r.t. the
    logits as a C-contiguous m x C array (None without `compute_grad`).
    The head reads the logits class-major: the max, the exponentials, their
    sums and the log-sum-exp are computed once, each reducing over the
    class axis, and the gradient (softmax - targets) / m reuses the
    exponentials in place.

    Up to C = 7 classes the sums are bit for bit those of a reduction over
    the classes of the row-major logits; from C = 8 numpy sums such rows
    pairwise, and the two differ by about 1e-15 relative."""
    logits_t = np.ascontiguousarray(logits.T)
    m = logits_t.shape[1]
    zmax = logits_t.max(axis=0)
    e = logits_t - zmax
    np.exp(e, out=e)
    sums = e.sum(axis=0)
    lse = np.log(sums)
    lse += zmax
    value = float(np.mean(lse - (logits_t * targets_t).sum(axis=0)))
    if not compute_grad:
        return value, None
    e /= sums
    e -= targets_t
    e /= m
    return value, np.ascontiguousarray(e.T)


def head_loss(params: ModelParams, operator: PropagationOperator,
              activations: Activations, head, target, rows=None,
              weight_decay: float = 0.0, blocks=None,
              compute_grad: bool = True):
    """(loss, flat gradient or None) of a head on `rows` of a forward's
    logits (None: all of them, in their order), plus weight decay.

    A head is `head(logits, target, compute_grad) -> (value, d_logits)`,
    with `d_logits` None without `compute_grad`: `ce_head` with class-major
    targets, or `fsnc.proto_head` with an episode. The head's gradient is
    scattered back to one row per logits row (the rows are distinct, so
    each gets 0.0 + its gradient) and backpropagated through the blocks of
    the forward that made `activations`."""
    logits = activations.logits
    value, d = head(logits if rows is None else logits[rows], target,
                    compute_grad)
    if weight_decay:
        flat = params.flatten()
        value += weight_decay * float(flat @ flat)
    if not compute_grad:
        return value, None
    if rows is not None:
        d_out = np.zeros_like(logits)
        d_out[rows] += d
        d = d_out
    grad = backward_from_output(params, operator, activations, d, blocks)
    if weight_decay:
        grad += 2.0 * weight_decay * flat
    return value, grad


def loss(activations: Activations, spec: LossSpec, params: ModelParams) -> float:
    """`ce_head` on the spec's rows of the logits, plus weight decay."""
    return head_loss(params, None, activations, ce_head, spec.targets_t,
                     spec.indices, spec.weight_decay, compute_grad=False)[0]


def backward_from_output(params: ModelParams, operator: PropagationOperator,
                         activations: Activations, d_out: np.ndarray,
                         blocks=None) -> np.ndarray:
    """Backpropagate a gradient w.r.t. the final layer output down to the
    flat parameter vector. The last layer has no nonlinearity, so d_out is
    also the gradient w.r.t. its preactivation. `blocks` are those of the
    forward that made `activations`."""
    grads_w = [None] * params.num_layers
    grads_b = [None] * params.num_layers
    dz = d_out
    for l in range(params.num_layers - 1, -1, -1):
        w = params.weights[l]
        op = operator if blocks is None else blocks[l].op
        after = propagates_after(l, w)
        # Z = A (H W) + b: one transpose product U = A^T dZ serves both
        # dW = H^T U and dH = U W^T
        u = op.apply_t(dz) if after else dz
        grads_w[l] = activations.inputs[l].T @ u
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            dh = u @ w.T if after else op.apply_t(dz @ w.T)
            dz = dh * (activations.preacts[l - 1] > 0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return np.concatenate(parts)


def backward(params: ModelParams, graph: Graph, operator: PropagationOperator,
             spec: LossSpec) -> np.ndarray:
    """The gradient of `loss` from a forward over all n rows. Nothing in the
    package calls it: it is kept only as a target of the benchmark's tracer
    (`perfbench/tracing.py`)."""
    acts = forward(params, graph, operator)
    return backward_from_acts(params, operator, acts, spec)


def backward_from_acts(params: ModelParams, operator: PropagationOperator,
                       acts: Activations, spec: LossSpec,
                       blocks=None) -> np.ndarray:
    """The gradient of `loss`, whose spec indexes the rows of the logits;
    `blocks` are those of the forward that made `acts`."""
    return head_loss(params, operator, acts, ce_head, spec.targets_t,
                     spec.indices, spec.weight_decay, blocks)[1]


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
