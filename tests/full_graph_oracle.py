"""Test-side full-graph oracle: the model's engine written the plain way.

Every layer propagates first and then transforms, M = A H and
Z = M W + b, on all n rows, and the loss reads its rows of the n-row
logits and scatters its gradient back into an n-row one. `fgsam.model`
instead propagates a narrowing layer after its transform and
`fgsam.optim.model_objective` runs each forward only on the rows its loss
reads, and its cross-entropy `fgsam.model.ce_head` reduces over the
class axis of class-major logits; all must match this oracle to a stated
tolerance where the order of summation changed, and bit for bit where it
did not. The head's tolerance is 1e-12 relative: up to 7 classes it
matches `ce_head` below bit for bit, and from 8 classes, where numpy sums
a row-major row pairwise, to about 1e-15."""

import numpy as np

import fgsam.fsnc as fsnc
import fgsam.model as mdl


def forward(params: mdl.ModelParams, x: np.ndarray,
            operator) -> mdl.Activations:
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        m = operator.apply(h)
        z = m @ w + b
        inputs.append(m)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    return mdl.Activations(inputs=inputs, preacts=preacts, logits=preacts[-1])


def backward(params: mdl.ModelParams, operator, acts: mdl.Activations,
             d_out: np.ndarray) -> np.ndarray:
    grads_w = [None] * params.num_layers
    grads_b = [None] * params.num_layers
    dz = d_out
    for l in range(params.num_layers - 1, -1, -1):
        grads_w[l] = acts.inputs[l].T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            dh = operator.apply_t(dz @ params.weights[l].T)
            dz = dh * (acts.preacts[l - 1] > 0)
    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.ravel())
        parts.append(gb)
    return np.concatenate(parts)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ce_head(logits_t: np.ndarray, targets_t: np.ndarray,
            compute_grad: bool = True):
    """`fgsam.model.ce_head` as the engine computed it before: on the
    row-major (m x C) logits, reducing over axis 1, with the log-sum-exp and
    the softmax each in their own pass."""
    z = np.ascontiguousarray(logits_t.T)
    targets = np.ascontiguousarray(targets_t.T)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax.ravel() + np.log(np.exp(z - zmax).sum(axis=1))
    value = float(np.mean(lse - np.sum(z * targets, axis=1)))
    if not compute_grad:
        return value, None
    return value, (softmax_rows(z) - targets) / z.shape[0]


def loss_grad(params: mdl.ModelParams, x: np.ndarray, operator,
              spec: mdl.LossSpec):
    """(softmax cross-entropy on the spec's rows plus weight decay, flat
    gradient), from a forward over all n rows."""
    acts = forward(params, x, operator)
    value, d = ce_head(acts.logits[spec.indices].T, spec.targets.T)
    d_out = np.zeros_like(acts.logits)
    d_out[spec.indices] = d
    grad = backward(params, operator, acts, d_out)
    flat = params.flatten()
    if spec.weight_decay:
        value += spec.weight_decay * float(flat @ flat)
        grad += 2.0 * spec.weight_decay * flat
    return value, grad


def proto_episode(params: mdl.ModelParams, graph, operator, episode,
                  weight_decay: float = 0.0):
    """(loss, flat gradient) of the prototypical head on the episode's rows
    of a forward over all n rows."""
    acts = forward(params, graph.features, operator)
    value, d_emb = fsnc.proto_head(acts.logits[episode.rows], episode)
    d_out = np.zeros_like(acts.logits)
    d_out[episode.rows] += d_emb
    grad = backward(params, operator, acts, d_out)
    flat = params.flatten()
    if weight_decay:
        value += weight_decay * float(flat @ flat)
        grad += 2.0 * weight_decay * flat
    return value, grad
