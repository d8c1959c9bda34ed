"""Test-side full-graph oracle: the model's engine written the plain way.

Every layer propagates first and then transforms, M = A H and
Z = M W + b, on all n rows, and the loss reads its rows of the n-row
logits and scatters its gradient back into an n-row one. `fgsam.model`
instead propagates a narrowing layer after its transform and
`fgsam.optim.model_objective` runs each forward only on the rows its loss
reads; both must match this oracle to a stated tolerance where the order of
summation changed, and bit for bit where it did not."""

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


def loss_grad(params: mdl.ModelParams, x: np.ndarray, operator,
              spec: mdl.LossSpec):
    """(softmax cross-entropy on the spec's rows plus weight decay, flat
    gradient), from a forward over all n rows."""
    acts = forward(params, x, operator)
    z = acts.logits[spec.indices]
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    lse = zmax.ravel() + np.log(e.sum(axis=1))
    value = float(np.mean(lse - np.sum(z * spec.targets, axis=1)))
    d_out = np.zeros_like(acts.logits)
    d_out[spec.indices] = (e / e.sum(axis=1, keepdims=True)
                           - spec.targets) / spec.indices.size
    grad = backward(params, operator, acts, d_out)
    flat = params.flatten()
    if spec.weight_decay:
        value += spec.weight_decay * float(flat @ flat)
        grad += 2.0 * spec.weight_decay * flat
    return value, grad


def proto_episode(params: mdl.ModelParams, graph, operator, episode,
                  weight_decay: float = 0.0):
    """(loss, accuracy, flat gradient) of the prototypical head on the
    episode's rows of a forward over all n rows."""
    acts = forward(params, graph.features, operator)
    value, acc, d_emb = fsnc.proto_head(acts.logits[episode.rows], episode)
    d_out = np.zeros_like(acts.logits)
    d_out[episode.rows] += d_emb
    grad = backward(params, operator, acts, d_out)
    flat = params.flatten()
    if weight_decay:
        value += weight_decay * float(flat @ flat)
        grad += 2.0 * weight_decay * flat
    return value, acc, grad
