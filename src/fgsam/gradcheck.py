"""Central finite-difference checks of the analytic gradients.

Used by the `check-grads` CLI command and by the test suite; the
finite-difference side is the independent oracle, so it never calls the
reverse-mode code.
"""

from dataclasses import dataclass

import numpy as np

from . import fsnc, optim
from . import model as mdl
from .graphcore import build_graph, normalize, with_num_classes

FD_STEP = 1e-5
MAX_NODES = 10                          # nodes of a random instance, at most
KINK_MARGIN, KINK_TRIES = 1e-4, 20      # see `_jittered_params`


def finite_difference(f, w: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    grad = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        grad[i] = (f(wp) - f(wm)) / (2.0 * h)
    return grad


def relative_error(grad: np.ndarray, grad_fd: np.ndarray) -> float:
    # the scale floor sits above the FD noise floor (~eps/h) so that
    # zero-gradient instances compare noise against noise, not against 0
    scale = max(float(np.max(np.abs(grad_fd))), 1e-6)
    return float(np.max(np.abs(grad - grad_fd))) / scale


def random_instance(rng):
    n = int(rng.integers(5, MAX_NODES + 1))
    d0 = int(rng.integers(2, 5))
    num_classes = int(rng.integers(2, 4))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    features = rng.standard_normal((n, d0))
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)  # every class present
    return with_num_classes(build_graph(n, edges, features, labels),
                            num_classes)


@dataclass
class CheckResult:
    description: str
    rel_err: float
    dims: tuple = ()


def _jittered_params(dims, graph, operator, rng):
    """Random parameters whose hidden preactivations stay KINK_MARGIN clear
    of the ReLU kink, where central differences and the subgradient
    disagree, drawn up to KINK_TRIES times."""
    params = None
    for _ in range(KINK_TRIES):
        params = mdl.init_params(dims, rng)
        flat = params.flatten() + 0.05 * rng.standard_normal(
            mdl.num_params(dims))
        params = mdl.ModelParams.from_flat(flat, dims)
        hidden = mdl.forward(params, graph, operator).preacts[:-1]
        if not hidden or min(float(np.min(np.abs(z)))
                             for z in hidden) > KINK_MARGIN:
            break
    return params


def check_supervised(rng, scheme: str, layers: int) -> CheckResult:
    graph = random_instance(rng)
    operator = normalize(graph, scheme)
    operator.fill_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, 3, graph.num_classes, layers)
    params = _jittered_params(dims, graph, operator, rng)
    wd = float(rng.choice([0.0, 0.01]))
    idx = rng.choice(graph.n, size=max(2, graph.n // 2), replace=False)
    spec = mdl.loss_spec_from_labels(np.sort(idx), graph.labels,
                                     graph.num_classes, weight_decay=wd)
    # the analytic gradient comes from the trainers' objective, whose
    # forwards run on the loss rows, a strict subset of the n rows; under
    # the identity operator it is the PeerMLP's
    obj = optim.model_objective(dims, graph, operator, spec)
    grad_fn = obj.mlp_grad if operator.is_identity else obj.gnn_grad
    _, grad = grad_fn(params.flatten())

    def f(w):
        p = mdl.ModelParams.from_flat(w, dims)
        return mdl.loss(mdl.forward(p, graph, operator), spec, p)

    fd = finite_difference(f, params.flatten())
    return CheckResult(f"supervised {scheme} L={layers}",
                       relative_error(grad, fd), tuple(dims))


def check_episode(rng, scheme: str, layers: int) -> CheckResult:
    graph = random_instance(rng)
    operator = normalize(graph, scheme)
    operator.fill_input(graph.features)
    dims = mdl.uniform_dims(graph.d0, 3, 3, layers)
    params = _jittered_params(dims, graph, operator, rng)
    counts = np.bincount(graph.labels, minlength=graph.num_classes)
    eligible = np.flatnonzero(counts >= 2)
    if eligible.size < 2:
        return None
    episode = fsnc.sample_episode(graph, eligible, way=2, shot=1, query=1,
                                  rng=rng)
    wd = float(rng.choice([0.0, 0.01]))
    # the analytic gradient comes from the trainers' objective, whose GNN
    # forwards run on the episode's receptive field, the finite differences
    # on all n rows; under the identity operator it is the PeerMLP's
    obj = fsnc.episode_objective(
        dims, graph, operator, episode, wd,
        blocks=mdl.receptive_field(operator, episode.rows, layers))
    grad_fn = obj.mlp_grad if operator.is_identity else obj.gnn_grad
    _, grad = grad_fn(params.flatten())

    def f(w):
        p = mdl.ModelParams.from_flat(w, dims)
        return fsnc.proto_episode(p, graph, operator, episode,
                                  weight_decay=wd, compute_grad=False)[0]

    fd = finite_difference(f, params.flatten())
    return CheckResult(f"episode {scheme} L={layers}",
                       relative_error(grad, fd), tuple(dims))


def run_suite(instances: int = 50, seed: int = 0) -> list:
    """Alternating supervised and prototypical-episode gradient checks over
    all operator schemes and depths 1..3."""
    rng = np.random.default_rng(seed)
    schemes = ("identity", "mean-neighbors", "gcn-sym")
    results = []
    i = 0
    while len(results) < instances:
        scheme = schemes[i % 3]
        layers = 1 + (i // 3) % 3
        if i % 2 == 0:
            results.append(check_supervised(rng, scheme, layers))
        else:
            res = check_episode(rng, scheme, layers)
            if res is not None:
                results.append(res)
        i += 1
    return results
