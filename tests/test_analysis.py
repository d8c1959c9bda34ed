import argparse
import json
import re
import warnings

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import analysis, cli, fsnc, optim
from fgsam.analysis import (AnalysisError, cost_report, filtered_means,
                            grad_drift, landscape_slice, rho_sweep,
                            verify_theorem)
from fgsam.graphcore import CsbmParams, generate_csbm, normalize
from fgsam.optim import GradientBundle
from full_graph_oracle import filled
from moments_oracle import mc_filtered_moments


class TestVerifyTheorem:
    def test_k3_simplex_example(self):
        rep = verify_theorem(CsbmParams(K=3, nodes_per_class=1, p=0.6, q=0.1,
                                        D=2.0, l=3, seed=0))
        assert len(rep.pairs) == 3
        assert rep.max_offset_gap <= 1e-9
        assert rep.min_cosine >= 1 - 1e-12

    def test_randomized_homophilic_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            K = int(rng.integers(2, 6))
            q = float(rng.uniform(0.01, 0.4))
            p = float(rng.uniform(q + 0.05, 0.99))
            params = CsbmParams(K=K, nodes_per_class=1, p=p, q=q,
                                D=float(rng.uniform(0.5, 10)),
                                l=K + int(rng.integers(0, 3)), seed=0)
            rep = verify_theorem(params)
            assert len(rep.pairs) == K * (K - 1) // 2
            assert rep.max_offset_gap <= 1e-9
            assert rep.min_cosine >= 1 - 1e-12
            for pair in rep.pairs:
                assert abs(np.linalg.norm(pair.w) - 1) < 1e-12
                assert abs(np.linalg.norm(pair.w_filtered) - 1) < 1e-12

    def test_degenerate_p_equals_q(self):
        with pytest.raises(AnalysisError):
            verify_theorem(CsbmParams(K=2, nodes_per_class=1, p=0.3, q=0.3,
                                      D=2.0, l=2, seed=0))


class TestFilteredMeans:
    def test_symmetric_two_class_hand_value(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = filtered_means(means, 0.8, 0.2)
        np.testing.assert_allclose(out[0], [0.6, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[1], [-0.6, 0.0], atol=1e-15)

    def test_p_equals_q_collapses_to_grand_mean(self):
        means = np.random.default_rng(0).standard_normal((4, 3))
        out = filtered_means(means, 0.3, 0.3)
        for row in out:
            np.testing.assert_allclose(row, means.mean(axis=0), atol=1e-12)

    def test_single_class_is_identity(self):
        means = np.array([[2.0, -1.0]])
        np.testing.assert_allclose(filtered_means(means, 0.5, 0.1), means,
                                   atol=1e-15)


class TestMcFilteredMoments:
    def test_within_four_standard_errors(self):
        params = CsbmParams(K=2, nodes_per_class=1000, p=0.8, q=0.2,
                            D=2.0, l=2, seed=3)
        rep = mc_filtered_moments(params)
        assert rep.max_abs_z <= 4.0

    def test_randomized_runs_mostly_within_bounds(self):
        hits = 0
        runs = 12
        for s in range(runs):
            params = CsbmParams(K=2, nodes_per_class=500, p=0.6, q=0.15,
                                D=2.0, l=2, seed=100 + s)
            if mc_filtered_moments(params).max_abs_z <= 4.0:
                hits += 1
        assert hits >= int(0.95 * runs)

    def test_isolated_fraction_error(self):
        params = CsbmParams(K=2, nodes_per_class=50, p=0.001, q=0.0,
                            D=2.0, l=2, seed=0)
        with pytest.raises(AnalysisError):
            mc_filtered_moments(params)


def quadratic_setup(seed=0):
    g = generate_csbm(CsbmParams(K=3, nodes_per_class=10, p=0.5, q=0.1,
                                 D=3.0, l=4, seed=seed))
    op = normalize(g, "gcn-sym")
    dims = mdl.uniform_dims(g.d0, 5, g.num_classes, 2)
    params = mdl.init_params(dims, np.random.default_rng(seed))
    spec = mdl.loss_spec_from_labels(np.arange(g.n), g.labels, g.num_classes)
    return g, op, params, spec


class TestLandscape:
    def test_base_point_bit_exact(self):
        g, op, params, spec = quadratic_setup()
        base = mdl.loss(mdl.forward(params, g, filled(g, "gcn-sym")), spec,
                        params)
        slc = landscape_slice(params, g, op, spec, 1,
                              np.linspace(-1, 1, 41), seed=0)
        assert slc.base_loss == base
        assert slc.losses[20] == base

    def test_grid_shape_1d_and_2d(self):
        g, op, params, spec = quadratic_setup()
        slc = landscape_slice(params, g, op, spec, 1,
                              np.linspace(-1, 1, 41), seed=1)
        assert slc.losses.shape == (41,)
        slc2 = landscape_slice(params, g, op, spec, 2,
                               np.linspace(-1, 1, 5), seed=1)
        assert slc2.losses.shape == (5, 5)

    def test_grid_must_contain_zero(self):
        g, op, params, spec = quadratic_setup()
        with pytest.raises(AnalysisError):
            landscape_slice(params, g, op, spec, 1, [0.5, 1.0], seed=0)

    @pytest.mark.parametrize("ndims,grid,where", [
        (1, [-1.0, 0.0, 1e300], "alpha = 1e+300"),
        (2, [-1.0, 0.0, 1e300], "alpha = -1, beta = 1e+300"),
        (1, [-np.inf, 0.0, 1.0], "alpha = -inf"),
        (1, [0.0, np.nan], "alpha = nan")])
    def test_non_finite_loss_names_first_grid_point(self, ndims, grid,
                                                    where):
        g, op, params, spec = quadratic_setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalysisError,
                               match=re.escape(f"is not finite at {where}")
                               + "$"):
                landscape_slice(params, g, op, spec, ndims, grid, seed=0)

    def test_quadratic_term_is_exact_parabola(self):
        # the weight-decay part of the loss is quadratic along any
        # direction; difference of slices isolates it
        g, op, params, _ = quadratic_setup()
        spec0 = mdl.loss_spec_from_labels(np.arange(g.n), g.labels,
                                          g.num_classes)
        spec1 = mdl.loss_spec_from_labels(np.arange(g.n), g.labels,
                                          g.num_classes, weight_decay=0.1)
        grid = np.linspace(-1, 1, 21)
        a = landscape_slice(params, g, op, spec0, 1, grid, seed=5)
        b = landscape_slice(params, g, op, spec1, 1, grid, seed=5)
        parabola = b.losses - a.losses
        second = np.diff(parabola, n=2)
        assert np.all(np.abs(second - second[0]) < 1e-9)

    def test_determinism(self):
        g, op, params, spec = quadratic_setup()
        a = landscape_slice(params, g, op, spec, 1, [-1, 0, 1], seed=3)
        b = landscape_slice(params, g, op, spec, 1, [-1, 0, 1], seed=3)
        assert np.array_equal(a.losses, b.losses)


class TestGradDrift:
    @staticmethod
    def bundle(g_s, g_h, g_v, g_G):
        return GradientBundle(g_s=np.asarray(g_s, float),
                              g_h=np.asarray(g_h, float),
                              g_v=np.asarray(g_v, float),
                              g_G=np.asarray(g_G, float))

    def test_constant_stream_zero_drift(self):
        b = self.bundle([1, 2], [1, 0], [0, 2], [3, 3])
        drift = grad_drift([b, b, b])
        for name in analysis.DRIFT_NAMES:
            assert np.all(drift[name]["raw"] == 0.0)

    def test_hand_example(self):
        b1 = self.bundle([1, 0], [1, 0], [0, 1], [1, 1])
        b2 = self.bundle([1, 0], [1, 0], [0, 2], [1, 1])
        drift = grad_drift([b1, b2])
        assert drift["g_v"]["raw"].tolist() == [1.0]
        assert drift["g_v"]["relative"].tolist() == [1.0]
        assert drift["g_s"]["raw"].tolist() == [0.0]

    def test_too_few_bundles(self):
        b = self.bundle([1], [1], [0], [0])
        with pytest.raises(AnalysisError):
            grad_drift([b])


def protocol_setup(optimizer="sam", **overrides):
    g = generate_csbm(CsbmParams(K=8, nodes_per_class=20, p=0.4, q=0.05,
                                 D=3.0, l=8, seed=0))
    split = fsnc.split_classes(8, (4, 2, 2), 0)
    base = dict(way=2, shot=3, query=5, repeats=1, episodes=10, patience=5,
                val_interval=20, val_tasks=3, test_tasks=5, hidden=8,
                optimizer=optimizer, hp=optim.Hyperparams(rho=0.05), seed=0)
    base.update(overrides)
    return fsnc.ProtocolConfig(**base), g, split


class TestRhoSweep:
    def test_adam_warns_single_curve(self):
        cfg, g, split = protocol_setup("adam")
        with pytest.warns(UserWarning):
            curves = rho_sweep(cfg, [0.01, 0.1], g, split)
        assert len(curves) == 1

    def test_traces_differ_only_through_rho(self):
        cfg, g, split = protocol_setup("sam")
        a = rho_sweep(cfg, [0.05], g, split)
        b = rho_sweep(cfg, [0.05, 0.5], g, split)
        assert a[0.05] == b[0.05]

    def test_tiny_rho_sam_matches_adam(self):
        cfg, g, split = protocol_setup("sam")
        sam_curve = rho_sweep(cfg, [1e-9], g, split)[1e-9]
        adam_rep = fsnc.train_protocol(
            protocol_setup("adam")[0], g, split)
        adam_curve = [row["loss"] for row in adam_rep.repeats[0].trace]
        assert all(abs(a - b) < 1e-6 for a, b in zip(sam_curve, adam_curve))

    def test_nonpositive_rho_rejected(self):
        cfg, g, split = protocol_setup("sam")
        with pytest.raises(AnalysisError):
            rho_sweep(cfg, [0.0], g, split)

    @pytest.mark.parametrize("rhos", [[0.1, 0.1], [0.05, 0.1, 0.05],
                                      [0.1, 1e-1]])
    def test_repeated_rho_rejected_before_training(self, monkeypatch, rhos):
        # its curve would replace the first one's in the result
        cfg, g, split = protocol_setup("sam")
        monkeypatch.setattr(fsnc, "train_protocol", None)
        with pytest.raises(AnalysisError, match="given more than once"):
            rho_sweep(cfg, rhos, g, split)


class TestCostReport:
    def test_ledger_rows(self):
        traces = {
            "adam": {"gnn_evals": 200, "mlp_evals": 0, "wall_seconds": 1.0},
            "fgsam+": {"gnn_evals": 100, "mlp_evals": 300,
                       "wall_seconds": 0.8},
        }
        rows = {r["optimizer"]: r for r in cost_report(traces)}
        assert rows["adam"]["wall_ratio_vs_adam"] == 1.0
        assert rows["fgsam+"]["wall_ratio_vs_adam"] == 0.8
        assert rows["fgsam+"]["mlp_evals"] == 300

    def test_missing_counter(self):
        with pytest.raises(AnalysisError):
            cost_report({"adam": {"gnn_evals": 1, "wall_seconds": 1.0}})


class TestReportCsv:
    def test_writes_csv_and_meta(self, tmp_path):
        path = str(tmp_path / "out.csv")
        args = argparse.Namespace(command="bench",
                                  settings={"out": str(tmp_path), "seed": 0})
        cli._write_table(args, "out.csv", ("a", "b"), [(1, 0.5), (2, 0.25)])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3
        meta = json.loads(open(str(tmp_path / "out.meta.json")).read())
        assert meta["seed"] == 0
