"""Verification instruments: optimal-classifier equality checker for the
CSBM, loss-landscape slicer, gradient-drift tracker, rho sweep, and cost
accounting."""

import hashlib
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fsnc
from . import model as mdl
from .graphcore import CsbmParams, Graph, simplex_means


class AnalysisError(ValueError):
    pass


@dataclass
class PairResult:
    class_a: int
    class_b: int
    w: np.ndarray
    b: np.ndarray
    w_filtered: np.ndarray
    b_filtered: np.ndarray
    offset_gap: float      # |w.b - w'.b'|
    cosine: float


@dataclass
class TheoremReport:
    params: CsbmParams
    pairs: list

    @property
    def max_offset_gap(self) -> float:
        return max(p.offset_gap for p in self.pairs)

    @property
    def min_cosine(self) -> float:
        return min(p.cosine for p in self.pairs)


def _pair_classifier(mu_a, mu_b):
    w = (mu_a - mu_b) / 2.0
    w = w / np.linalg.norm(w)
    b = (mu_a + mu_b) / 2.0
    return w, b


def filtered_means(means: np.ndarray, p: float, q: float) -> np.ndarray:
    """Class means of mean-neighbor-filtered features."""
    K = means.shape[0]
    mu_bar = means.mean(axis=0)
    return ((p - q) * means + q * K * mu_bar) / (p + (K - 1) * q)


def verify_theorem(params: CsbmParams) -> TheoremReport:
    """Build the optimal linear classifier for raw and for filtered
    features independently per class pair and report how far apart they
    are; the two are predicted to be identical."""
    if params.K < 2:
        raise AnalysisError(f"need at least 2 classes to compare, got "
                            f"K={params.K}")
    if params.p == params.q:
        raise AnalysisError("degenerate p == q")
    if params.p + (params.K - 1) * params.q <= 0:
        raise AnalysisError("p + (K-1)q must be positive")
    means = simplex_means(params.K, params.D, params.l)
    fmeans = filtered_means(means, params.p, params.q)
    pairs = []
    for a in range(params.K):
        for b in range(a + 1, params.K):
            w, bias = _pair_classifier(means[a], means[b])
            wf, bf = _pair_classifier(fmeans[a], fmeans[b])
            pairs.append(PairResult(
                class_a=a, class_b=b, w=w, b=bias, w_filtered=wf,
                b_filtered=bf,
                offset_gap=abs(float(w @ bias) - float(wf @ bf)),
                cosine=float(w @ wf)))
    return TheoremReport(params=params, pairs=pairs)


@dataclass
class LandscapeSlice:
    alphas: np.ndarray
    betas: np.ndarray          # None for 1D
    losses: np.ndarray         # (len(alphas),) or (len(alphas), len(betas))
    base_loss: float
    seed: int


def _filter_normalized_direction(params: mdl.ModelParams,
                                 rng: np.random.Generator) -> np.ndarray:
    """Gaussian direction with each weight block rescaled to the norm of
    the corresponding weight matrix; biases are left unnormalized."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        d = rng.standard_normal(w.shape)
        dnorm = np.linalg.norm(d)
        if dnorm > 0:
            d *= np.linalg.norm(w) / dnorm
        parts.append(d.ravel())
        parts.append(rng.standard_normal(b.size))
    return np.concatenate(parts)


def landscape_slice(params: mdl.ModelParams, graph: Graph, operator,
                    loss_spec: mdl.LossSpec, ndims: int, grid,
                    seed: int) -> LandscapeSlice:
    if ndims not in (1, 2):
        raise AnalysisError("ndims must be 1 or 2")
    grid = np.asarray(grid, dtype=np.float64)
    if not np.any(grid == 0.0):
        raise AnalysisError("grid must contain 0")
    operator.fill_input(graph.features)
    rng = np.random.default_rng(seed)
    dims = params.dims
    flat = params.flatten()
    d1 = _filter_normalized_direction(params, rng)
    d2 = _filter_normalized_direction(params, rng) if ndims == 2 else None

    def eval_at(a, b=0.0):
        shifted = flat
        if a != 0.0:
            shifted = shifted + a * d1
        if b != 0.0:
            shifted = shifted + b * d2
        p = mdl.ModelParams.from_flat(shifted, dims)
        acts = mdl.forward(p, graph, operator)
        return mdl.loss(acts, loss_spec, p)

    # a far grid point may overflow; its loss is reported, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base_loss = eval_at(0.0)
        if ndims == 1:
            losses = np.array([eval_at(a) for a in grid])
        else:
            losses = np.array([[eval_at(a, b) for b in grid] for a in grid])
    bad = np.argwhere(~np.isfinite(losses))
    if bad.size:
        at = ", ".join(f"{name} = {grid[i]:g}"
                       for name, i in zip(("alpha", "beta"), bad[0]))
        raise AnalysisError(f"loss {losses[tuple(bad[0])]} is not finite at "
                            f"{at}")
    return LandscapeSlice(grid, None if ndims == 1 else grid, losses,
                          base_loss, seed)


DRIFT_NAMES = ("g_s", "g_h", "g_v", "g_G")


def grad_drift(bundles) -> dict:
    """Per-step change of each named gradient across exact steps.

    Returns, per name, raw drifts ||g_{t+1} - g_t|| and the same divided
    by ||g_t|| so both readings of the claim can be checked.
    """
    if len(bundles) < 2:
        raise AnalysisError("need at least two exact-step bundles")
    out = {}
    for name in DRIFT_NAMES:
        series = [getattr(b, name) for b in bundles]
        raw = np.array([float(np.linalg.norm(b - a))
                        for a, b in zip(series[:-1], series[1:])])
        base = np.array([float(np.linalg.norm(a)) for a in series[:-1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(base > 0, raw / base, np.nan)
        out[name] = {"raw": raw, "relative": rel}
    return out


def rho_sweep(config: fsnc.ProtocolConfig, rho_list, graph: Graph,
              split: fsnc.ClassSplit) -> dict:
    """Single-repeat training-loss trace per rho (identical seeds, so
    traces differ only through rho), keyed by rho. A repeated rho, whose
    trace would replace the first one's, is refused before any training."""
    rhos = [float(r) for r in rho_list]
    if any(r <= 0 for r in rhos):
        raise AnalysisError("rho values must be positive")
    for rho in rhos:
        if rhos.count(rho) > 1:
            raise AnalysisError(f"rho {rho} is given more than once")
    if config.optimizer == "adam":
        warnings.warn("adam has no rho; running one flat-config trace")
        rhos = rhos[:1]
    out = {}
    for rho in rhos:
        cfg = replace(config, repeats=1, hp=replace(config.hp, rho=rho))
        report = fsnc.train_protocol(cfg, graph, split)
        out[rho] = [row["loss"] for row in report.repeats[0].trace]
    return out


def cost_report(traces: dict) -> list:
    """Per-optimizer table of evaluation counts and wall time, with the
    wall-time ratio against adam."""
    for name, rec in traces.items():
        for key in ("gnn_evals", "mlp_evals", "wall_seconds"):
            if key not in rec:
                raise AnalysisError(f"trace {name!r} missing {key}")
    adam_wall = traces.get("adam", {}).get("wall_seconds")
    rows = []
    for name, rec in traces.items():
        ratio = (rec["wall_seconds"] / adam_wall
                 if adam_wall else float("nan"))
        rows.append({"optimizer": name, "gnn_evals": rec["gnn_evals"],
                     "mlp_evals": rec["mlp_evals"],
                     "wall_seconds": rec["wall_seconds"],
                     "wall_ratio_vs_adam": ratio})
    return rows


def content_hash(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

