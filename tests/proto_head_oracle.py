"""Test-side oracle of the prototypical head: the head as it was written
before its softmax reused the log-sum-exp's exponentials and its two
gradient sums shared one product, so that the leaner head can be compared
bit for bit against it."""

import numpy as np

import fgsam.model as mdl


def proto_head(emb: np.ndarray, episode, compute_grad: bool = True):
    """Prototypical head on the embeddings `emb` of the episode's rows
    (`episode.rows`: support then query): class prototypes are mean support
    embeddings, query logits are negative squared distances. Returns
    (cross-entropy, accuracy, gradient of the cross-entropy w.r.t. `emb` or
    None)."""
    way, shot = episode.way, episode.shot
    ns = way * shot
    zs, zq = emb[:ns], emb[ns:]
    protos = zs.reshape(way, shot, -1).mean(axis=1)
    diff = zq[:, None, :] - protos[None, :, :]
    logits = -(diff * diff).sum(axis=2)
    labels = episode.query_labels
    m = labels.size
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax.ravel() + np.log(np.exp(logits - zmax).sum(axis=1))
    value = float(np.mean(lse - logits[np.arange(m), labels]))
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    if not compute_grad:
        return value, acc, None
    probs = mdl.softmax_rows(logits)
    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dd2 = -dlogits                                 # logits = -d^2
    dzq = 2.0 * (dd2[:, :, None] * diff).sum(axis=1)
    dprot = -2.0 * (dd2[:, :, None] * diff).sum(axis=0)
    dzs = np.repeat(dprot / shot, shot, axis=0)
    return value, acc, np.concatenate([dzs, dzq])
