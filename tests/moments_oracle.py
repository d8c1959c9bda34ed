"""Test-side filtered-moment oracle (criterion 5): Monte-Carlo class means
of mean-neighbor-filtered CSBM features against `analysis.filtered_means`,
in units of their analytic standard error."""

from dataclasses import dataclass, replace

import numpy as np

from fgsam.analysis import AnalysisError, filtered_means
from fgsam.graphcore import (CsbmParams, generate_csbm, normalize,
                             simplex_means)


@dataclass
class MomentClassResult:
    class_id: int
    analytic_mean: np.ndarray
    empirical_mean: np.ndarray
    standard_error: np.ndarray
    max_abs_z: float


@dataclass
class MomentReport:
    params: CsbmParams
    samples: int
    classes: list

    @property
    def max_abs_z(self) -> float:
        return max(c.max_abs_z for c in self.classes)


def mc_filtered_moments(params: CsbmParams,
                        graph_samples: int = 1) -> MomentReport:
    """Compare empirical class means of mean-neighbor-filtered features
    against the analytic prediction, in units of the (graph-conditional)
    analytic standard error."""
    means = simplex_means(params.K, params.D, params.l)
    analytic = filtered_means(means, params.p, params.q)
    emp_sums = np.zeros((params.K, params.l))
    var_sums = np.zeros(params.K)
    for s in range(graph_samples):
        graph = generate_csbm(replace(params, seed=params.seed + s))
        deg = graph.degrees()
        if np.mean(deg == 0) > 0.10:
            raise AnalysisError("isolated-node fraction exceeds 10%")
        op = normalize(graph, "mean-neighbors")
        filtered = op.apply(graph.features)
        for k in range(params.K):
            members = np.flatnonzero(graph.labels == k)
            emp_sums[k] += filtered[members].mean(axis=0)
            # class mean is sum_j c_j x_j with x_j ~ N(mu, I) independent
            coeffs = np.asarray(
                op.matrix[members].sum(axis=0)).ravel() / members.size
            var_sums[k] += float(coeffs @ coeffs)
    classes = []
    for k in range(params.K):
        emp = emp_sums[k] / graph_samples
        se = np.full(params.l, np.sqrt(var_sums[k]) / graph_samples)
        z = np.abs(emp - analytic[k]) / se
        classes.append(MomentClassResult(
            class_id=k, analytic_mean=analytic[k], empirical_mean=emp,
            standard_error=se, max_abs_z=float(z.max())))
    return MomentReport(params=params, samples=graph_samples, classes=classes)
