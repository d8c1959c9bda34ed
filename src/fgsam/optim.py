"""Optimizer family: Adam base, SAM, FGSAM and FGSAM+.

Each optimizer consumes an Objective exposing instrumented gradient
evaluations of the GNN and of its PeerMLP over the shared flat weight
vector, and feeds its composed gradient into a bias-corrected Adam update.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import model as mdl
from .graphcore import Graph, PropagationOperator


class OptimError(ValueError):
    pass


@dataclass
class Hyperparams:
    lr: float = 0.01
    rho: float = 0.05          # perturbation radius (0 disables perturbation)
    lambda_topo: float = 0.0   # weight of the reused GNN gradient
    alpha: float = 0.7         # adaptive ratio for approximate steps
    k: int = 2                 # exact-update interval
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # every comparison with NaN is false, so the range checks below
        # would let it through
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise OptimError(f"{f.name} must be finite")
        if self.lr <= 0:
            raise OptimError("lr must be positive")
        if self.rho < 0:
            raise OptimError("rho must be non-negative")
        if self.lambda_topo < 0:
            raise OptimError("lambda_topo must be non-negative")
        if not 0 < self.alpha <= 1:
            raise OptimError("alpha must lie in (0, 1]")
        if isinstance(self.k, bool) or self.k != int(self.k) or self.k < 1:
            raise OptimError("k must be a positive integer")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise OptimError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise OptimError("eps must be positive")
        if self.weight_decay < 0:
            raise OptimError("weight_decay must be non-negative")


@dataclass
class GradientBundle:
    g_mlp: np.ndarray = None
    g_s: np.ndarray = None
    g_h: np.ndarray = None
    g_v: np.ndarray = None
    g_G: np.ndarray = None


@dataclass
class OptimizerState:
    hp: Hyperparams
    t: int = 0
    m: np.ndarray = None
    v: np.ndarray = None
    cached_g_v: np.ndarray = None
    cached_g_G: np.ndarray = None
    cached_gv_norm: float = None    # ||cached_g_v||, set with it
    cached_gG_norm: float = None    # ||cached_g_G||, set with it

    def ensure_moments(self, size: int):
        if self.m is None:
            self.m = np.zeros(size)
            self.v = np.zeros(size)


@dataclass
class StepRecord:
    loss: float
    grad_norm: float
    gv_norm: float = float("nan")
    gG_norm: float = float("nan")
    branch: str = "n/a"
    flags: list = field(default_factory=list)
    bundle: GradientBundle = None


class Objective:
    """Instrumented gradient evaluations of a model and its PeerMLP.

    `mlp_grad` also takes a (K, P) stack of weight vectors, counts K
    evaluations and returns (K losses, (K, P) gradients) from one pass, each
    the bits of that weight's own evaluation. `gnn_grad` takes one vector.
    """

    def __init__(self, gnn_fn, mlp_fn):
        self._gnn_fn = gnn_fn
        self._mlp_fn = mlp_fn
        self.gnn_evals = 0
        self.mlp_evals = 0

    def gnn_grad(self, w):
        self.gnn_evals += 1
        return self._gnn_fn(w)

    def mlp_grad(self, w):
        self.mlp_evals += 1 if w.ndim == 1 else len(w)
        return self._mlp_fn(w)


def peer_objective(dims, operator: PropagationOperator,
                   loss_grad) -> Objective:
    """The GNN, propagating with `operator`, and its PeerMLP, the same model
    under the identity operator, over one flat weight vector.
    `loss_grad(params, op)` returns (loss, flat gradient) under `op`; the
    PeerMLP's params may be a stack (`model.ModelParams.from_flat`)."""
    identity = PropagationOperator("identity", None)

    def make(op):
        return lambda w: loss_grad(mdl.ModelParams.from_flat(w, dims), op)

    return Objective(make(operator), make(identity))


def model_objective(dims, graph: Graph, operator: PropagationOperator,
                    spec: mdl.LossSpec) -> Objective:
    """Supervised node-classification objective over the flat weight vector.

    Each forward outputs only the loss rows' sorted union: the GNN runs its
    lower layers on all n rows and its last layer on `model.top_blocks` of
    the union, the PeerMLP on the union's features, each cut or gathered
    here once. When the union is every node, both run on all n rows
    instead. Each gradient is its forward plus one `model.head_loss` with
    `model.ce_head` at each loss row's position in the union (None, no
    gather, when the spec's rows are sorted), which is the gradient of a
    forward over all n rows, bit for bit. The GNN's first layer reads all n
    rows of A.X, so `operator` must hold the full `fill_input` of
    `graph.features`."""
    union = np.sort(spec.indices)
    positions = (None if np.array_equal(union, spec.indices)
                 else np.searchsorted(union, spec.indices))
    # sorted distinct rows, so n of them are every node in order
    full = union.size == graph.n
    mlp = (graph.features if full else graph.features[union], None)
    gnn = mlp if full or operator.is_identity else (
        graph.features, mdl.top_blocks(operator, union, len(dims) - 1))

    def loss_grad(params, op):
        x, blocks = mlp if op.is_identity else gnn
        acts = mdl.forward_features(params, x, op, blocks)
        return mdl.head_loss(params, acts, mdl.ce_head, spec.label_index,
                             positions, spec.weight_decay)

    return peer_objective(dims, operator, loss_grad)


def sam_epsilon(grad: np.ndarray, rho: float):
    """Ascent perturbation of l2-norm rho along the gradient.

    Returns (epsilon, degenerate_flag); a zero gradient yields a zero
    perturbation and sets the flag instead of raising.
    """
    if rho < 0:
        raise OptimError("rho must be non-negative")
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        return np.zeros_like(grad), True
    return (rho / norm) * grad, False


def decompose(g_s: np.ndarray, g_ref: np.ndarray):
    """Split g_s into components parallel (g_h) and orthogonal (g_v) to g_ref.

    The projection coefficient is dot(g_s, g_ref) / dot(g_ref, g_ref),
    algebraically equal to |g_s| cos(theta) / |g_ref| but exact when
    g_s == g_ref, so the rho=0 collapse is bit-exact.
    """
    denom = float(g_ref @ g_ref)
    if denom == 0.0:
        raise OptimError("zero reference gradient")
    g_h = (float(g_s @ g_ref) / denom) * g_ref
    return g_h, g_s - g_h


def topology_grad(g_gnn: np.ndarray, g_mlp: np.ndarray) -> np.ndarray:
    """Component of the GNN gradient orthogonal to the MLP gradient: the
    orthogonal part of `decompose(g_gnn, g_mlp)`, which raises
    `OptimError` on a zero MLP gradient."""
    return decompose(g_gnn, g_mlp)[1]


def adam_step(state: OptimizerState, grad: np.ndarray,
              params: np.ndarray) -> np.ndarray:
    if grad.shape != params.shape:
        raise OptimError("gradient/parameter length mismatch")
    hp = state.hp
    state.ensure_moments(params.size)
    state.t += 1
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g in place, then
    # params - lr m_hat / (sqrt(v_hat) + eps), each operation in the order
    # of these formulas, so the floats are theirs bit for bit
    m, v = state.m, state.v
    m *= hp.beta1
    m += (1 - hp.beta1) * grad
    g2 = (1 - hp.beta2) * grad
    g2 *= grad
    v *= hp.beta2
    v += g2
    step = m / (1 - hp.beta1 ** state.t)
    v_hat = np.divide(v, 1 - hp.beta2 ** state.t, out=g2)
    np.sqrt(v_hat, out=v_hat)
    v_hat += hp.eps
    step *= hp.lr
    step /= v_hat
    return np.subtract(params, step, out=step)


class BaseOptimizer:
    def __init__(self, hp: Hyperparams):
        self.state = OptimizerState(hp=hp)

    def step(self, objective: Objective, w: np.ndarray):
        raise NotImplementedError


class AdamOptimizer(BaseOptimizer):
    def step(self, objective, w):
        value, g = objective.gnn_grad(w)
        w_new = adam_step(self.state, g, w)
        rec = StepRecord(value, float(np.linalg.norm(g)))
        return w_new, rec


class SamOptimizer(BaseOptimizer):
    """Baseline SAM: perturb and minimize with the GNN."""

    def step(self, objective, w):
        value, g = objective.gnn_grad(w)
        eps, degenerate = sam_epsilon(g, self.state.hp.rho)
        _, g_s = objective.gnn_grad(w + eps)
        w_new = adam_step(self.state, g_s, w)
        rec = StepRecord(value, float(np.linalg.norm(g_s)),
                         flags=["zero-grad"] if degenerate else [])
        return w_new, rec


class FgsamOptimizer(BaseOptimizer):
    """Perturb with the GNN gradient, minimize the perturbed loss on the
    PeerMLP, and add back lambda times the GNN gradient."""

    def step(self, objective, w):
        hp = self.state.hp
        _, g_gnn = objective.gnn_grad(w)
        eps, degenerate = sam_epsilon(g_gnn, hp.rho)
        # log the loss actually minimized (the perturbed PeerMLP loss)
        value, g_s = objective.mlp_grad(w + eps)
        g = hp.lambda_topo * g_gnn + g_s
        w_new = adam_step(self.state, g, w)
        rec = StepRecord(value, float(np.linalg.norm(g_s)),
                         flags=["zero-grad"] if degenerate else [])
        return w_new, rec


class FgsamPlusOptimizer(BaseOptimizer):
    """FGSAM executed exactly every k steps; intermediate steps reuse the
    cached flatness (g_v) and topology (g_G) gradients. Step 0 is always
    exact, so the caches exist before any approximate step."""

    def step(self, objective, w):
        hp = self.state.hp
        st = self.state
        if st.t % hp.k == 0:
            return self._exact_step(objective, w)
        return self._approx_step(objective, w)

    def _exact_step(self, objective, w):
        hp, st = self.state.hp, self.state
        _, g_gnn = objective.gnn_grad(w)
        eps, degenerate = sam_epsilon(g_gnn, hp.rho)
        flags = ["zero-grad"] if degenerate else []
        # the PeerMLP at w and at w + eps are independent: one stacked pass
        (_, value), (g_mlp, g_s) = objective.mlp_grad(np.stack([w, w + eps]))
        g_G = topology_grad(g_gnn, g_mlp)
        g_h, g_v = decompose(g_s, g_mlp)
        g = hp.lambda_topo * g_gnn + g_s
        st.cached_g_v, st.cached_g_G = g_v, g_G
        st.cached_gv_norm = float(np.linalg.norm(g_v))
        st.cached_gG_norm = float(np.linalg.norm(g_G))
        w_new = adam_step(st, g, w)
        bundle = GradientBundle(g_mlp=g_mlp, g_s=g_s, g_h=g_h, g_v=g_v,
                                g_G=g_G)
        rec = StepRecord(value, float(np.linalg.norm(g_s)),
                         gv_norm=st.cached_gv_norm, gG_norm=st.cached_gG_norm,
                         branch="exact", flags=flags, bundle=bundle)
        return w_new, rec

    def _approx_step(self, objective, w):
        hp, st = self.state.hp, self.state
        value, g_mlp = objective.mlp_grad(w)
        mlp_norm = float(np.linalg.norm(g_mlp))
        gv_norm, gG_norm = st.cached_gv_norm, st.cached_gG_norm
        flags = []
        if gG_norm > 0.0:
            g_gnn_hat = g_mlp + (mlp_norm / gG_norm) * st.cached_g_G
        else:
            g_gnn_hat = g_mlp
            flags.append("zero-gG")
        g = g_mlp
        if gv_norm > 0.0:
            g = g + hp.alpha * (mlp_norm / gv_norm) * st.cached_g_v
        else:
            flags.append("zero-gv")
        g = g + hp.lambda_topo * g_gnn_hat
        w_new = adam_step(st, g, w)
        rec = StepRecord(value, mlp_norm, gv_norm=gv_norm,
                         gG_norm=gG_norm, branch="approx", flags=flags)
        return w_new, rec


_OPTIMIZERS = {
    "adam": AdamOptimizer,
    "sam": SamOptimizer,
    "fgsam": FgsamOptimizer,
    "fgsam+": FgsamPlusOptimizer,
}

OPTIMIZER_NAMES = tuple(_OPTIMIZERS)


def make_optimizer(name: str, hp: Hyperparams) -> BaseOptimizer:
    if name not in _OPTIMIZERS:
        raise OptimError(f"unknown optimizer {name!r}")
    return _OPTIMIZERS[name](hp)
