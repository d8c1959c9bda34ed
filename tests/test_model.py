import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import gradcheck, optim
from fgsam.gradcheck import random_instance
from fgsam.graphcore import PropagationOperator, normalize
from peermlp_oracle import forward_mlp


def make_instance(seed, layers=2, hidden=3, scheme="gcn-sym"):
    rng = np.random.default_rng(seed)
    graph = random_instance(rng)
    operator = normalize(graph, scheme)
    dims = mdl.uniform_dims(graph.d0, hidden, graph.num_classes, layers)
    params = mdl.init_params(dims, rng)
    spec = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                     graph.num_classes)
    return graph, operator, dims, params, spec


class TestParams:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layers = int(rng.integers(1, 4))
            dims = [int(rng.integers(1, 6)) for _ in range(layers + 1)]
            params = mdl.init_params(dims, rng)
            flat = params.flatten()
            assert flat.size == mdl.num_params(dims)
            back = mdl.ModelParams.from_flat(flat, dims)
            assert np.array_equal(back.flatten(), flat)
            assert back.dims == dims

    def test_from_flat_returns_views(self):
        dims = [3, 4, 2]
        flat = mdl.init_params(dims, np.random.default_rng(1)).flatten()
        params = mdl.ModelParams.from_flat(flat, dims)
        for array in params.weights + params.biases:
            assert np.shares_memory(array, flat)
        assert params.weights[1].flags.c_contiguous

    def test_from_flat_length_check(self):
        with pytest.raises(mdl.ModelError):
            mdl.ModelParams.from_flat(np.zeros(5), [2, 2])

    def test_uniform_dims(self):
        assert mdl.uniform_dims(7, 16, 3, 1) == [7, 3]
        assert mdl.uniform_dims(7, 16, 3, 3) == [7, 16, 16, 3]
        with pytest.raises(mdl.ModelError):
            mdl.uniform_dims(7, 16, 3, 0)

    def test_init_glorot_bounds(self):
        params = mdl.init_params([100, 50], np.random.default_rng(0))
        bound = np.sqrt(6.0 / 150)
        assert np.abs(params.weights[0]).max() <= bound
        assert np.all(params.biases[0] == 0.0)


class TestForward:
    def test_identity_equals_dedicated_mlp(self):
        for seed in range(20):
            graph, _, dims, params, _ = make_instance(seed)
            ident = PropagationOperator("identity", None)
            a = mdl.forward(params, graph, ident)
            b = forward_mlp(params, graph.features)
            assert np.array_equal(a.logits, b.logits)
            for x, y in zip(a.inputs + a.preacts, b.inputs + b.preacts):
                assert np.array_equal(x, y)

    def test_linear_identity_model(self):
        graph, _, _, _, _ = make_instance(1)
        d0 = graph.d0
        params = mdl.ModelParams([np.eye(d0)], [np.zeros(d0)])
        ident = PropagationOperator("identity", None)
        acts = mdl.forward(params, graph, ident)
        assert np.array_equal(acts.logits, graph.features)

    def test_matches_straight_line_reimplementation(self):
        # independent dense re-implementation of the layer rule
        for seed in range(10):
            graph, operator, _, params, _ = make_instance(seed, layers=2)
            p = operator.matrix.toarray()
            h = graph.features
            for l, (w, b) in enumerate(zip(params.weights, params.biases)):
                z = p.dot(h).dot(w) + b
                h = z if l == len(params.weights) - 1 else np.maximum(z, 0)
            acts = mdl.forward(params, graph, operator)
            np.testing.assert_allclose(acts.logits, h, atol=1e-12)

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((50, 6)) * 100
        probs = mdl.softmax_rows(z)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)
        assert np.all(np.isfinite(probs))

    def test_dimension_mismatch(self):
        graph, operator, _, _, _ = make_instance(3)
        params = mdl.init_params([graph.d0 + 1, 2], np.random.default_rng(0))
        with pytest.raises(mdl.ModelError):
            mdl.forward(params, graph, operator)

    def test_determinism(self):
        graph, operator, _, params, _ = make_instance(4)
        a = mdl.forward(params, graph, operator)
        b = mdl.forward(params, graph, operator)
        assert np.array_equal(a.logits, b.logits)


class TestLoss:
    def test_uniform_probabilities(self):
        logits = np.zeros((5, 4))
        acts = mdl.Activations(inputs=[], preacts=[logits], logits=logits)
        spec = mdl.loss_spec_from_labels(np.arange(5), np.zeros(5, np.int64), 4)
        params = mdl.ModelParams([np.zeros((1, 1))], [np.zeros(1)])
        assert abs(mdl.loss(acts, spec, params) - np.log(4)) < 1e-12

    def test_confident_correct_is_zero(self):
        logits = np.zeros((3, 2))
        logits[:, 0] = 1000.0
        acts = mdl.Activations(inputs=[], preacts=[logits], logits=logits)
        spec = mdl.loss_spec_from_labels(np.arange(3), np.zeros(3, np.int64), 2)
        params = mdl.ModelParams([np.zeros((1, 1))], [np.zeros(1)])
        assert mdl.loss(acts, spec, params) < 1e-12

    def test_weight_decay_term(self):
        graph, operator, _, params, _ = make_instance(5)
        flat = params.flatten()
        acts = mdl.forward(params, graph, operator)
        spec0 = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                          graph.num_classes)
        spec1 = mdl.loss_spec_from_labels(np.arange(graph.n), graph.labels,
                                          graph.num_classes, weight_decay=0.1)
        diff = mdl.loss(acts, spec1, params) - mdl.loss(acts, spec0, params)
        assert abs(diff - 0.1 * float(flat @ flat)) < 1e-12

    def test_large_logits_finite(self):
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        acts = mdl.Activations(inputs=[], preacts=[logits], logits=logits)
        spec = mdl.loss_spec_from_labels(np.arange(2),
                                         np.array([0, 0]), 2)
        params = mdl.ModelParams([np.zeros((1, 1))], [np.zeros(1)])
        assert np.isfinite(mdl.loss(acts, spec, params))

    def test_spec_validation(self):
        with pytest.raises(mdl.ModelError):
            mdl.LossSpec(np.array([], dtype=np.int64), np.zeros((0, 2)))
        with pytest.raises(mdl.ModelError):
            mdl.LossSpec(np.array([1, 1]), np.zeros((2, 2)))
        with pytest.raises(mdl.ModelError):
            mdl.LossSpec(np.array([0, 1]), np.zeros((3, 2)))
        with pytest.raises(mdl.ModelError):
            mdl.LossSpec(np.array([0]), np.zeros((1, 2)), weight_decay=-1.0)


class TestBackward:
    def test_softmax_only_on_loss_rows(self, monkeypatch):
        graph, operator, _, params, _ = make_instance(6)
        rows = np.arange(0, graph.n, 2)
        spec = mdl.loss_spec_from_labels(rows, graph.labels,
                                         graph.num_classes)
        seen, ce_head = [], mdl.ce_head

        def head_spy(logits, targets_t, compute_grad=True):
            seen.append(logits.shape[0])
            return ce_head(logits, targets_t, compute_grad)

        # the head computes the softmax, on the loss rows of the logits
        monkeypatch.setattr(mdl, "ce_head", head_spy)
        acts = mdl.forward(params, graph, operator)
        mdl.backward_from_acts(params, operator, acts, spec)
        assert seen == [rows.size]

    def test_identity_equals_mlp_gradient_path(self):
        for seed in range(10):
            graph, _, dims, params, spec = make_instance(seed)
            ident = PropagationOperator("identity", None)
            g1 = mdl.backward(params, graph, ident, spec)
            acts = forward_mlp(params, graph.features)
            g2 = mdl.backward_from_acts(params, ident, acts, spec)
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("scheme", ["identity", "mean-neighbors",
                                        "gcn-sym"])
    def test_finite_difference_small_instance(self, scheme):
        graph, _, dims, params, spec = make_instance(6, scheme=scheme)
        operator = normalize(graph, scheme)
        grad = mdl.backward(params, graph, operator, spec)

        def f(w):
            p = mdl.ModelParams.from_flat(w, dims)
            return mdl.loss(mdl.forward(p, graph, operator), spec, p)

        fd = gradcheck.finite_difference(f, params.flatten())
        assert gradcheck.relative_error(grad, fd) < 1e-4


class TestGradcheckSuite:
    def test_small_suite(self):
        results = gradcheck.run_suite(instances=12, seed=42)
        assert len(results) == 12
        assert max(r.rel_err for r in results) < 1e-4

    def test_suite_checks_narrowing_layers_on_loss_rows(self, monkeypatch):
        # the suite of `check-grads` and criterion 1; its supervised checks
        # take their gradients from the trainers' objective on a strict
        # subset of the rows
        subsets = []
        objective = optim.model_objective

        def spy(dims, graph, operator, spec):
            subsets.append(spec.indices.size < graph.n)
            return objective(dims, graph, operator, spec)

        monkeypatch.setattr(optim, "model_objective", spy)
        results = gradcheck.run_suite(instances=50, seed=0)
        supervised = [r for r in results
                      if r.description.startswith("supervised")]
        assert len(subsets) == len(supervised) > 0 and all(subsets)

        def narrows(dims):
            return any(l > 0 and d_out < d_in for l, (d_in, d_out)
                       in enumerate(zip(dims[:-1], dims[1:])))

        # gcn-sym's matrix is its own transpose, mean-neighbors' is not
        for scheme in ("gcn-sym", "mean-neighbors"):
            mine = [r for r in supervised if f" {scheme} " in r.description]
            assert any(narrows(r.dims) for r in mine), scheme
            assert any(len(r.dims) > 2 and not narrows(r.dims)
                       for r in mine), scheme
            assert max(r.rel_err for r in mine) < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        dims = mdl.uniform_dims(5, 7, 3, 3)
        params = mdl.init_params(dims, np.random.default_rng(1))
        path = str(tmp_path / "w.ckpt")
        mdl.save_checkpoint(path, params, 7)
        back, hidden = mdl.load_checkpoint(path)
        assert hidden == 7
        assert back.dims == dims
        assert np.array_equal(back.flatten(), params.flatten())

    @pytest.mark.parametrize("keep", [0, 10, 16 + 8, -8, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        dims = mdl.uniform_dims(5, 7, 3, 2)
        params = mdl.init_params(dims, np.random.default_rng(1))
        path = tmp_path / "w.ckpt"
        mdl.save_checkpoint(str(path), params, 7)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(mdl.ModelError, match="checkpoint"):
            mdl.load_checkpoint(str(path))

    def test_trailing_bytes_and_bad_header_rejected(self, tmp_path):
        dims = mdl.uniform_dims(5, 7, 3, 2)
        params = mdl.init_params(dims, np.random.default_rng(1))
        path = tmp_path / "w.ckpt"
        mdl.save_checkpoint(str(path), params, 7)
        blob = path.read_bytes()
        path.write_bytes(blob + bytes(8))
        with pytest.raises(mdl.ModelError, match="payload"):
            mdl.load_checkpoint(str(path))
        path.write_bytes(mdl._HEADER.pack(2, -5, 7, 3) + blob[16:])
        with pytest.raises(mdl.ModelError, match="header"):
            mdl.load_checkpoint(str(path))
