import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import gradcheck
from fgsam.gradcheck import random_instance
from fgsam.graphcore import PropagationOperator, normalize


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
            b = mdl.forward_mlp(params, graph.features)
            assert np.array_equal(a.logits, b.logits)
            assert np.array_equal(a.probs, b.probs)
            for x, y in zip(a.preacts, b.preacts):
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
    def test_softmax_only_on_loss_rows(self):
        graph, operator, _, params, spec = make_instance(6)
        acts = mdl.forward(params, graph, operator)
        mdl.backward_from_acts(params, operator, acts, spec)
        assert "probs" not in vars(acts)  # the full softmax never ran
        assert np.array_equal(acts.probs, mdl.softmax_rows(acts.logits))

    def test_identity_equals_mlp_gradient_path(self):
        for seed in range(10):
            graph, _, dims, params, spec = make_instance(seed)
            ident = PropagationOperator("identity", None)
            g1 = mdl.backward(params, graph, ident, spec)
            acts = mdl.forward_mlp(params, graph.features)
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

    def test_perturbed_backward_zero_epsilon(self):
        graph, operator, _, params, spec = make_instance(7)
        eps = np.zeros(params.flatten().size)
        g1 = mdl.perturbed_backward(params, eps, graph, operator, spec)
        g2 = mdl.backward(params, graph, operator, spec)
        assert np.array_equal(g1, g2)

    def test_perturbed_backward_definitional(self):
        graph, operator, dims, params, spec = make_instance(8)
        rng = np.random.default_rng(0)
        eps = 0.01 * rng.standard_normal(params.flatten().size)
        g1 = mdl.perturbed_backward(params, eps, graph, operator, spec)
        shifted = mdl.ModelParams.from_flat(params.flatten() + eps, dims)
        g2 = mdl.backward(shifted, graph, operator, spec)
        assert np.array_equal(g1, g2)

    def test_perturbed_backward_restores_params(self):
        graph, operator, _, params, spec = make_instance(9)
        before = params.flatten().copy()
        eps = np.full(before.size, 0.5)
        mdl.perturbed_backward(params, eps, graph, operator, spec)
        assert np.array_equal(params.flatten(), before)

    def test_epsilon_length_mismatch(self):
        graph, operator, _, params, spec = make_instance(10)
        with pytest.raises(mdl.ModelError):
            mdl.perturbed_backward(params, np.zeros(3), graph, operator, spec)


class TestGradcheckSuite:
    def test_small_suite(self):
        results = gradcheck.run_suite(instances=12, seed=42)
        assert len(results) == 12
        assert max(r.rel_err for r in results) < 1e-4


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
