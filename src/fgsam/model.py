"""Shared-weight L-layer GCN and its PeerMLP: forward pass, softmax
cross-entropy and exact reverse-mode gradients over a flat parameter vector.

The same code path serves the GNN (real propagation operator) and the
PeerMLP (identity operator); removing message passing is literally just
swapping the operator.
"""

import functools
import struct
from dataclasses import dataclass

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
        flat = np.asarray(flat, dtype=np.float64)
        expected = num_params(dims)
        if flat.shape != (expected,):
            raise ModelError(f"flat vector must have length {expected}")
        weights, biases, off = [], [], 0
        for din, dout in zip(dims[:-1], dims[1:]):
            weights.append(flat[off:off + din * dout].reshape(din, dout).copy())
            off += din * dout
            biases.append(flat[off:off + dout].copy())
            off += dout
        return cls(weights, biases)

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights],
                           [b.copy() for b in self.biases])


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
    inputs: list            # per layer: post-propagation input M^(l)
    preacts: list           # per layer: Z^(l) = M W + b
    logits: np.ndarray      # final layer output, n x C

    @functools.cached_property
    def probs(self) -> np.ndarray:
        """Row softmax of all n logits, computed on first use: the losses
        read only their own rows."""
        return softmax_rows(self.logits)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class LossSpec:
    indices: np.ndarray     # distinct node indices < n
    targets: np.ndarray     # one-hot rows aligned with indices
    weight_decay: float = 0.0

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


def loss_spec_from_labels(indices, labels, num_classes, weight_decay=0.0) -> LossSpec:
    indices = np.asarray(indices, dtype=np.int64)
    onehot = np.zeros((indices.size, num_classes))
    onehot[np.arange(indices.size), labels[indices]] = 1.0
    return LossSpec(indices, onehot, weight_decay)


def forward(params: ModelParams, graph: Graph,
            operator: PropagationOperator) -> Activations:
    return forward_features(params, graph.features, operator)


def forward_features(params: ModelParams, x: np.ndarray,
                     operator: PropagationOperator) -> Activations:
    if x.shape[1] != params.dims[0]:
        raise ModelError(
            f"feature dim {x.shape[1]} != model input dim {params.dims[0]}")
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        # layer 0 propagates the fixed input: one product per operator
        m = operator.propagate_input(h) if l == 0 else operator.apply(h)
        z = m @ w + b
        inputs.append(m)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return Activations(inputs=inputs, preacts=preacts, logits=preacts[-1])


def forward_mlp(params: ModelParams, x: np.ndarray) -> Activations:
    """Dedicated MLP path: the layer rule without any propagation operator."""
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        inputs.append(h)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return Activations(inputs=inputs, preacts=preacts, logits=preacts[-1])


def loss(activations: Activations, spec: LossSpec, params: ModelParams) -> float:
    z = activations.logits[spec.indices]
    # log-sum-exp stabilized cross-entropy
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax.ravel() + np.log(np.exp(z - zmax).sum(axis=1))
    ce = np.mean(lse - np.sum(z * spec.targets, axis=1))
    if spec.weight_decay:
        flat = params.flatten()
        ce += spec.weight_decay * float(flat @ flat)
    return float(ce)


def backward_from_output(params: ModelParams, operator: PropagationOperator,
                         activations: Activations,
                         d_out: np.ndarray) -> np.ndarray:
    """Backpropagate a gradient w.r.t. the final layer output down to the
    flat parameter vector. The last layer has no nonlinearity, so d_out is
    also the gradient w.r.t. its preactivation."""
    grads_w = [None] * params.num_layers
    grads_b = [None] * params.num_layers
    dz = d_out
    for l in range(params.num_layers - 1, -1, -1):
        m = activations.inputs[l]
        grads_w[l] = m.T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            dm = dz @ params.weights[l].T
            dh = operator.apply_t(dm)
            dz = dh * (activations.preacts[l - 1] > 0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return np.concatenate(parts)


def backward(params: ModelParams, graph: Graph, operator: PropagationOperator,
             spec: LossSpec) -> np.ndarray:
    acts = forward(params, graph, operator)
    return backward_from_acts(params, operator, acts, spec)


def backward_from_acts(params: ModelParams, operator: PropagationOperator,
                       acts: Activations, spec: LossSpec) -> np.ndarray:
    m = spec.indices.size
    d_out = np.zeros_like(acts.logits)
    probs = softmax_rows(acts.logits[spec.indices])
    d_out[spec.indices] = (probs - spec.targets) / m
    grad = backward_from_output(params, operator, acts, d_out)
    if spec.weight_decay:
        grad += 2.0 * spec.weight_decay * params.flatten()
    return grad


def perturbed_backward(params: ModelParams, epsilon: np.ndarray, graph: Graph,
                       operator: PropagationOperator,
                       spec: LossSpec) -> np.ndarray:
    flat = params.flatten()
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if epsilon.shape != flat.shape:
        raise ModelError("epsilon length does not match parameter count")
    shifted = ModelParams.from_flat(flat + epsilon, params.dims)
    return backward(shifted, graph, operator, spec)


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
