"""Test-side PeerMLP oracle: the layer rule written out without any
propagation operator, so that the GNN under the identity operator can be
compared against an independent MLP path."""

import numpy as np

import fgsam.model as mdl
from fgsam.graphcore import PropagationOperator


def forward_mlp(params: mdl.ModelParams, x: np.ndarray) -> mdl.Activations:
    """Dedicated MLP path: the layer rule without any propagation operator.
    Its activations record the identity operator's n-row blocks, which a
    backward of `fgsam.model` runs on."""
    h = x
    inputs, preacts = [], []
    last = params.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        inputs.append(h)
        preacts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    identity = PropagationOperator("identity", None)
    return mdl.Activations(inputs=inputs, preacts=preacts, logits=preacts[-1],
                           blocks=[mdl.Block(None, identity)] * len(inputs))
