import dataclasses

import numpy as np
import pytest

import fgsam.model as mdl
from fgsam import fsnc, optim
from fgsam.graphcore import CsbmParams, generate_csbm
from fgsam.optim import (Hyperparams, OptimError, OptimizerState, adam_step,
                         decompose, make_optimizer, sam_epsilon,
                         topology_grad)
from fgsam.seeding import stream_rng
from full_graph_oracle import filled


def make_objective(seed=0, weight_decay=0.0, scheme="gcn-sym"):
    """A small supervised objective; scheme "identity" makes the GNN the
    PeerMLP, so an optimizer run on it minimizes the PeerMLP."""
    g = generate_csbm(CsbmParams(K=3, nodes_per_class=8, p=0.5, q=0.1,
                                 D=3.0, l=4, seed=seed))
    op = filled(g, scheme)
    dims = mdl.uniform_dims(g.d0, 5, g.num_classes, 2)
    spec = mdl.loss_spec_from_labels(np.arange(g.n), g.labels, g.num_classes,
                                     weight_decay=weight_decay)
    obj = optim.model_objective(dims, g, op, spec)
    w0 = mdl.init_params(dims, stream_rng(seed, "init")).flatten()
    return obj, w0, (g, op, dims, spec)


def run_steps(name, hp, steps, seed=0, scheme="gcn-sym"):
    obj, w0, _ = make_objective(seed, scheme=scheme)
    opt = make_optimizer(name, hp)
    w = w0.copy()
    recs = []
    for _ in range(steps):
        w, rec = opt.step(obj, w)
        recs.append(rec)
    return w, recs, obj


class TestHyperparams:
    def test_defaults_valid(self):
        Hyperparams()

    def test_one_k_default(self):
        # FGSAM+ runs an exact step every second step unless told otherwise,
        # whichever way its hyperparameters are built
        assert Hyperparams().k == fsnc.ProtocolConfig().hp.k == 2
        assert fsnc.NCConfig().hp.k == 2

    def test_field_names_and_order(self):
        # the benchmark's reference spec stores `asdict` of its Hyperparams
        assert [f.name for f in dataclasses.fields(Hyperparams)] == [
            "lr", "rho", "lambda_topo", "alpha", "k", "beta1", "beta2",
            "eps", "weight_decay"]

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"rho": -0.1}, {"lambda_topo": -1.0}, {"alpha": 0.0},
        {"alpha": 1.5}, {"k": 0}, {"beta1": 1.0}, {"beta2": -0.1},
        {"eps": 0.0}, {"weight_decay": -0.5},
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(OptimError):
            Hyperparams(**kwargs)

    @pytest.mark.parametrize("k", [2.5, 0.5, 1.0000001, True, False, -2])
    def test_k_must_be_a_positive_integer(self, k):
        # a fractional k would run exact steps at t = 0, 5, 10, ... for
        # k = 2.5, and a boolean k is no count of steps
        with pytest.raises(OptimError, match="^k must be a positive integer$"):
            Hyperparams(k=k)

    @pytest.mark.parametrize("k", [1, 3, 3.0, np.int64(4)])
    def test_integral_k_accepted(self, k):
        assert Hyperparams(k=k).k == k

    @pytest.mark.parametrize("kwargs", [
        {"lr": float("nan"), "rho": float("inf")}, {"lr": float("inf")},
        {"rho": float("nan")}, {"lambda_topo": float("inf")},
        {"alpha": float("nan")}, {"beta1": float("nan")},
        {"eps": float("inf")}, {"weight_decay": float("nan")},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(OptimError, match="must be finite"):
            Hyperparams(**kwargs)


class TestSamEpsilon:
    def test_hand_examples(self):
        eps, flag = sam_epsilon(np.array([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(eps, [0.6, 0.8], atol=1e-15)
        assert not flag
        eps, _ = sam_epsilon(np.array([5.0, 0.0]), 0.1)
        np.testing.assert_allclose(eps, [0.1, 0.0], atol=1e-15)

    def test_negative_rho_rejected(self):
        with pytest.raises(OptimError, match="^rho must be non-negative$"):
            sam_epsilon(np.ones(3), -0.1)

    def test_zero_gradient_flags(self):
        eps, flag = sam_epsilon(np.zeros(4), 0.5)
        assert flag and np.array_equal(eps, np.zeros(4))

    def test_norm_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = rng.standard_normal(int(rng.integers(1, 20)))
            if np.linalg.norm(g) == 0:
                continue
            rho = float(rng.uniform(1e-3, 10))
            eps, flag = sam_epsilon(g, rho)
            assert not flag
            assert abs(np.linalg.norm(eps) - rho) < 1e-9
            # parallel to g
            cos = eps @ g / (np.linalg.norm(eps) * np.linalg.norm(g))
            assert cos > 1 - 1e-12


class TestDecompose:
    def test_axis_projection(self):
        g_h, g_v = decompose(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g_h, [1, 0], atol=1e-15)
        np.testing.assert_allclose(g_v, [0, 1], atol=1e-15)

    def test_parallel_gives_zero_gv(self):
        g_ref = np.array([2.0, -1.0, 0.5])
        g_h, g_v = decompose(3.0 * g_ref, g_ref)
        np.testing.assert_allclose(g_v, 0.0, atol=1e-15)

    def test_identical_vectors_exact(self):
        g = np.random.default_rng(1).standard_normal(30)
        g_h, g_v = decompose(g, g)
        assert np.array_equal(g_h, g)
        assert np.all(g_v == 0.0)

    def test_orthogonal_gives_zero_gh(self):
        g_h, g_v = decompose(np.array([0.0, 3.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g_h, 0.0, atol=1e-15)
        np.testing.assert_allclose(g_v, [0, 3], atol=1e-15)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            g_s = rng.standard_normal(n)
            g_ref = rng.standard_normal(n)
            g_h, g_v = decompose(g_s, g_ref)
            assert np.all(np.abs(g_h + g_v - g_s) < 1e-10)
            assert abs(g_v @ g_ref) <= 1e-8 * max(
                np.linalg.norm(g_v) * np.linalg.norm(g_ref), 1e-30)
            # g_h parallel to g_ref
            assert np.linalg.norm(
                g_h - (g_h @ g_ref / (g_ref @ g_ref)) * g_ref) < 1e-12

    def test_zero_reference(self):
        with pytest.raises(OptimError):
            decompose(np.ones(3), np.zeros(3))


class TestTopologyGrad:
    def test_hand_examples(self):
        np.testing.assert_allclose(
            topology_grad(np.array([2.0, 0.0]), np.array([1.0, 0.0])),
            [0, 0], atol=1e-15)
        np.testing.assert_allclose(
            topology_grad(np.array([0.0, 2.0]), np.array([1.0, 0.0])),
            [0, 2], atol=1e-15)
        np.testing.assert_allclose(
            topology_grad(np.array([1.0, 1.0]), np.array([1.0, 0.0])),
            [0, 1], atol=1e-15)

    def test_orthogonality_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            g_gnn = rng.standard_normal(n)
            g_mlp = rng.standard_normal(n)
            g_G = topology_grad(g_gnn, g_mlp)
            assert abs(g_G @ g_mlp) <= 1e-8 * max(
                np.linalg.norm(g_G) * np.linalg.norm(g_mlp), 1e-30)

    def test_zero_mlp(self):
        with pytest.raises(OptimError):
            topology_grad(np.ones(3), np.zeros(3))

    def test_bits_of_the_projection_formula(self):
        # the orthogonal part of `decompose`, and the formula
        # g_gnn - (g_gnn . g_mlp / g_mlp . g_mlp) g_mlp bit for bit
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            g_gnn, g_mlp = rng.standard_normal((2, n)) * rng.uniform(
                1e-3, 1e3, size=(2, 1))
            g_G = topology_grad(g_gnn, g_mlp)
            scale = float(g_gnn @ g_mlp) / float(g_mlp @ g_mlp)
            assert g_G.tobytes() == (g_gnn - scale * g_mlp).tobytes()
            assert g_G.tobytes() == decompose(g_gnn, g_mlp)[1].tobytes()


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        state = OptimizerState(hp=Hyperparams())
        w = np.array([1.0, -2.0])
        out = adam_step(state, np.zeros(2), w)
        assert np.array_equal(out, w)
        assert state.t == 1

    def test_first_step_hand_value(self):
        state = OptimizerState(hp=Hyperparams(lr=1e-3))
        out = adam_step(state, np.array([1.0]), np.array([0.0]))
        assert abs(out[0] - (-9.9999999e-4)) < 1e-12

    def test_momentum_decay_moves_after_zero_grads(self):
        state = OptimizerState(hp=Hyperparams(lr=0.1))
        w = adam_step(state, np.array([1.0]), np.array([5.0]))
        w1 = adam_step(state, np.array([0.0]), w)
        w2 = adam_step(state, np.array([0.0]), w1)
        assert w1[0] != w[0] and w2[0] != w1[0]

    def test_length_mismatch(self):
        state = OptimizerState(hp=Hyperparams())
        with pytest.raises(OptimError):
            adam_step(state, np.zeros(3), np.zeros(2))

    def test_reference_recurrence(self):
        # independent single-step recurrence oracle
        hp = Hyperparams(lr=0.05)
        state = OptimizerState(hp=hp)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(6)
        m = np.zeros(6)
        v = np.zeros(6)
        for t in range(1, 8):
            g = rng.standard_normal(6)
            w_opt = adam_step(state, g, w)
            m = hp.beta1 * m + (1 - hp.beta1) * g
            v = hp.beta2 * v + (1 - hp.beta2) * g ** 2
            w = w - hp.lr * (m / (1 - hp.beta1 ** t)) / (
                np.sqrt(v / (1 - hp.beta2 ** t)) + hp.eps)
            np.testing.assert_allclose(w_opt, w, atol=1e-15)
            w = w_opt


    def test_in_place_moments_keep_every_bit(self):
        # the update before the moments were kept in place, as the oracle
        def fresh_arrays(state, grad, params):
            hp = state.hp
            state.ensure_moments(params.size)
            state.t += 1
            state.m = hp.beta1 * state.m + (1 - hp.beta1) * grad
            state.v = hp.beta2 * state.v + (1 - hp.beta2) * grad * grad
            m_hat = state.m / (1 - hp.beta1 ** state.t)
            v_hat = state.v / (1 - hp.beta2 ** state.t)
            return params - hp.lr * m_hat / (np.sqrt(v_hat) + hp.eps)

        rng = np.random.default_rng(5)
        for _ in range(50):
            hp = Hyperparams(lr=float(rng.uniform(1e-4, 0.5)),
                             beta1=float(rng.uniform(0.0, 0.99)),
                             beta2=float(rng.uniform(0.0, 0.9999)),
                             eps=float(10.0 ** rng.uniform(-12, -2)))
            got, want = OptimizerState(hp=hp), OptimizerState(hp=hp)
            w_got = w_want = rng.standard_normal(int(rng.integers(1, 300)))
            for t in range(12):
                scale = 10.0 ** rng.uniform(-8, 4)
                g = 0.0 * w_got if t % 5 == 2 else (
                    scale * rng.standard_normal(w_got.size))
                moments = (got.m, got.v)
                w_in, w_before = w_got, w_got.copy()
                w_got = adam_step(got, g, w_in)
                w_want = fresh_arrays(want, g, w_want)
                assert np.array_equal(w_got, w_want)
                assert np.array_equal(got.m, want.m)
                assert np.array_equal(got.v, want.v)
                if t:       # the same arrays, updated in place
                    assert got.m is moments[0] and got.v is moments[1]
                # the weights passed in stay as they were
                assert np.array_equal(w_in, w_before)


class TestSamToyQuadratic:
    def test_hand_evaluation(self):
        # L(w) = w^2/2, w=2, rho=1: eps = 1, SAM grad = 3,
        # one plain gradient-descent step with lr 0.1 gives 1.7
        w = np.array([2.0])
        eps, _ = sam_epsilon(w, 1.0)          # grad of L is w itself
        assert eps[0] == 1.0
        g_s = w + eps                          # grad at w + eps
        assert g_s[0] == 3.0
        assert (w - 0.1 * g_s)[0] == pytest.approx(1.7, abs=1e-15)


class TestLedger:
    def test_counts_all_optimizers(self):
        obj_proto, w0, (g, op, dims, spec) = make_objective()
        for T in range(1, 21):
            for name in ("adam", "sam", "fgsam"):
                obj = optim.model_objective(dims, g, op, spec)
                opt = make_optimizer(name, Hyperparams(rho=0.05))
                w = w0.copy()
                for _ in range(T):
                    w, _ = opt.step(obj, w)
                if name == "adam":
                    assert (obj.gnn_evals, obj.mlp_evals) == (T, 0)
                elif name == "sam":
                    assert (obj.gnn_evals, obj.mlp_evals) == (2 * T, 0)
                else:
                    assert (obj.gnn_evals, obj.mlp_evals) == (T, T)
            for k in range(1, 6):
                obj = optim.model_objective(dims, g, op, spec)
                opt = make_optimizer("fgsam+", Hyperparams(rho=0.05, k=k))
                w = w0.copy()
                for _ in range(T):
                    w, _ = opt.step(obj, w)
                exact = -(-T // k)
                assert (obj.gnn_evals, obj.mlp_evals) == (exact, T + exact)

    def test_k3_t7_example(self):
        _, recs, obj = run_steps("fgsam+", Hyperparams(rho=0.05, k=3), 7)
        assert obj.gnn_evals == 3
        assert [r.branch for r in recs] == ["exact", "approx", "approx",
                                            "exact", "approx", "approx",
                                            "exact"]


class TestCollapse:
    def test_rho_zero_lambda_zero_bit_exact(self):
        hp0 = Hyperparams(rho=0.0, lambda_topo=0.0, k=2)
        w_gnn, r_gnn, _ = run_steps("adam", hp0, 12)
        w_mlp, r_mlp, _ = run_steps("adam", hp0, 12, scheme="identity")
        for name, ref_w, ref_r in [("sam", w_gnn, r_gnn),
                                   ("fgsam", w_mlp, r_mlp),
                                   ("fgsam+", w_mlp, r_mlp)]:
            w, recs, _ = run_steps(name, hp0, 12)
            assert np.array_equal(w, ref_w), name
            assert all(a.loss == b.loss and a.grad_norm == b.grad_norm
                       for a, b in zip(recs, ref_r)), name

    def test_sam_tiny_rho_near_adam(self):
        w_adam, r_adam, _ = run_steps("adam", Hyperparams(rho=0.05), 10)
        w_sam, r_sam, _ = run_steps("sam", Hyperparams(rho=1e-9), 10)
        assert all(abs(a.loss - b.loss) < 1e-6
                   for a, b in zip(r_adam, r_sam))

    def test_fgsam_identity_operator_equals_sam_on_mlp(self):
        # with the identity operator the GNN path is literally the MLP
        hp = Hyperparams(rho=0.1, lambda_topo=0.0)
        w_fgsam, _, _ = run_steps("fgsam", hp, 10, scheme="identity")
        w_sam, _, _ = run_steps("sam", hp, 10, scheme="identity")
        assert np.array_equal(w_fgsam, w_sam)


class TestRecomposition:
    def test_fgsam_gradient_oracle(self):
        hp = Hyperparams(rho=0.1, lambda_topo=0.4)
        obj, w0, (g, op, dims, spec) = make_objective(seed=5)
        opt = make_optimizer("fgsam", hp)
        w1, _ = opt.step(obj, w0.copy())
        # recompose independently through the model layer
        from fgsam.graphcore import PropagationOperator
        params = mdl.ModelParams.from_flat(w0, dims)
        g_gnn = mdl.backward(params, g, op, spec)
        eps, _ = sam_epsilon(g_gnn, hp.rho)
        ident = PropagationOperator("identity", None)
        g_s = mdl.backward(mdl.ModelParams.from_flat(w0 + eps, dims), g,
                           ident, spec)
        composed = hp.lambda_topo * g_gnn + g_s
        state = OptimizerState(hp=hp)
        w1_ref = adam_step(state, composed, w0)
        assert np.array_equal(w1, w1_ref)

    def test_fgsam_plus_k1_matches_fgsam(self):
        hp = Hyperparams(rho=0.1, lambda_topo=0.4, k=1)
        w_f, _, _ = run_steps("fgsam", hp, 10, seed=6)
        w_p, recs, _ = run_steps("fgsam+", hp, 10, seed=6)
        assert np.array_equal(w_f, w_p)
        assert all(r.branch == "exact" for r in recs)

    def test_approx_branch_hand_composed(self):
        hp = Hyperparams(rho=0.1, lambda_topo=0.4, alpha=0.6, k=2)
        obj, w0, _ = make_objective(seed=7)
        opt = make_optimizer("fgsam+", hp)
        w1, rec1 = opt.step(obj, w0.copy())
        st = opt.state
        snap = OptimizerState(hp=hp, t=st.t, m=st.m.copy(), v=st.v.copy())
        g_v, g_G = st.cached_g_v.copy(), st.cached_g_G.copy()
        w2, rec2 = opt.step(obj, w1)
        assert rec2.branch == "approx"
        # hand-compose the approximate gradient from the cached vectors
        obj2, _, _ = make_objective(seed=7)
        _, g_mlp = obj2.mlp_grad(w1)
        mlp_norm = np.linalg.norm(g_mlp)
        g_gnn_hat = g_mlp + (mlp_norm / np.linalg.norm(g_G)) * g_G
        composed = g_mlp
        composed = composed + hp.alpha * (mlp_norm / np.linalg.norm(g_v)) * g_v
        composed = composed + hp.lambda_topo * g_gnn_hat
        w2_ref = adam_step(snap, composed, w1)
        assert np.array_equal(w2, w2_ref)

    def test_bundle_invariants(self):
        hp = Hyperparams(rho=0.2, lambda_topo=0.3, k=3)
        _, recs, _ = run_steps("fgsam+", hp, 7, seed=8)
        bundles = [r.bundle for r in recs if r.bundle is not None]
        assert len(bundles) == 3
        for b in bundles:
            assert np.all(np.abs(b.g_h + b.g_v - b.g_s) < 1e-10)
            assert abs(b.g_v @ b.g_mlp) <= 1e-8 * max(
                np.linalg.norm(b.g_v) * np.linalg.norm(b.g_mlp), 1e-30)
            assert abs(b.g_G @ b.g_mlp) <= 1e-8 * max(
                np.linalg.norm(b.g_G) * np.linalg.norm(b.g_mlp), 1e-30)


class TestFactory:
    def test_known_names(self):
        for name in optim.OPTIMIZER_NAMES:
            opt = make_optimizer(name, Hyperparams())
            assert opt.state.t == 0 and opt.state.m is None

    def test_unknown_name(self):
        with pytest.raises(OptimError):
            make_optimizer("sgdm", Hyperparams())

    def test_k_zero_rejected(self):
        with pytest.raises(OptimError):
            make_optimizer("fgsam+", Hyperparams(k=0))
