"""Sharpness-aware optimizers for graph neural networks with a
weight-sharing PeerMLP fast path, plus synthetic-graph theory checks and
an episodic few-shot training protocol."""

from .graphcore import (
    CsbmParams,
    Graph,
    PropagationOperator,
    build_graph,
    generate_csbm,
    load_graph,
    normalize,
    save_graph,
    simplex_means,
)
from .model import (
    Activations,
    LossSpec,
    ModelParams,
    backward,
    forward,
    init_params,
    loss,
    uniform_dims,
)
from .optim import (
    GradientBundle,
    Hyperparams,
    OptimizerState,
    adam_step,
    decompose,
    make_optimizer,
    sam_epsilon,
    topology_grad,
)
from .fsnc import (
    ClassSplit,
    Episode,
    ProtocolConfig,
    proto_episode,
    sample_episode,
    split_classes,
    standard_nc_train,
    train_protocol,
)
from .analysis import (
    cost_report,
    grad_drift,
    landscape_slice,
    rho_sweep,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
