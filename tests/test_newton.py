import numpy as np
import pytest

from sketchsolve.linalg import lambda_min_plus, symmetrize
from sketchsolve.matgen import LinearSystem
from sketchsolve.newton import (
    full_newton,
    logistic_objective,
    quadratic_objective,
    rho_certificate,
    rsn_solve,
    rsn_step,
)
from sketchsolve.sketch import SketchSpec, apply_sketch, draw_sketch
from sketchsolve.solver import project_step


def _logistic_data(n_samples, n_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, n_features))
    y = np.sign(X @ rng.standard_normal(n_features) + 0.1 * rng.standard_normal(n_samples))
    y[y == 0] = 1.0
    return X, y


def _psd_sqrt(H):
    """Symmetric PSD square root via eigendecomposition (negatives clipped)."""
    w, V = np.linalg.eigh(symmetrize(H))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


class TestRsnStep:
    def test_full_sketch_is_exact_newton_on_quadratic(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((6, 6))
        H = G @ G.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        obj = quadratic_objective(H, b)
        S = rng.standard_normal((6, 6))  # invertible a.s.
        x_new = rsn_step(obj, rng.standard_normal(6), S, eta=1.0)
        np.testing.assert_allclose(x_new, np.linalg.solve(H, b), atol=1e-8)

    def test_stationary_point_unchanged(self):
        obj = quadratic_objective(np.diag([2.0, 3.0]), np.array([2.0, 3.0]))
        x_star = np.ones(2)
        S = np.random.default_rng(1).standard_normal((1, 2))
        np.testing.assert_allclose(rsn_step(obj, x_star, S), x_star, atol=1e-12)

    def test_identity_hessian_matches_sketch_and_project(self):
        # f(x) = 0.5 x^T x - b^T x: RSN step == projection step on I x = b
        rng = np.random.default_rng(2)
        b = rng.standard_normal(7)
        obj = quadratic_objective(np.eye(7), b)
        system = LinearSystem(A=np.eye(7), b=b, x_star=b)
        x = rng.standard_normal(7)
        S = draw_sketch(SketchSpec("gaussian", k=3, seed_stream=3), 7, trial=0)
        x_rsn = rsn_step(obj, x, S, eta=1.0)
        x_proj, _ = project_step(x, system, S)
        np.testing.assert_allclose(x_rsn, x_proj, atol=1e-10)

    def test_least_squares_reduction_to_projection(self):
        # On f(x) = 0.5 ||Ax - b||^2 the eta=1 RSN step with a k x n sketch
        # equals sketch-and-project on the normal equations A^T A x = A^T b
        # in the A^T A metric.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        H = A.T @ A

        obj = quadratic_objective(H, A.T @ b)  # same gradients as 0.5||Ax-b||^2
        x_star = np.linalg.lstsq(A, b, rcond=None)[0]
        normal_system = LinearSystem(A=H, b=A.T @ b, x_star=x_star, metric=H)
        x = rng.standard_normal(6)
        S_tall = draw_sketch(SketchSpec("gaussian", k=3, seed_stream=4), 30, trial=0)
        S_tilde = S_tall @ A  # k x n sketch of the Newton system
        x_rsn = rsn_step(obj, x, S_tilde, eta=1.0)
        x_proj, _ = project_step(x, normal_system, S_tilde)
        np.testing.assert_allclose(x_rsn, x_proj, atol=1e-8)

    def test_sparse_sketch_supported(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((10, 10))
        obj = quadratic_objective(G @ G.T + np.eye(10), rng.standard_normal(10))
        S = draw_sketch(SketchSpec("less_uniform", k=3, s=4, seed_stream=5), 10, trial=0)
        x = rng.standard_normal(10)
        from sketchsolve.sketch import densify

        x_sparse = rsn_step(obj, x, S)
        x_dense = rsn_step(obj, x, densify(S))
        np.testing.assert_allclose(x_sparse, x_dense, atol=1e-10)


class TestRsnSolve:
    def test_quadratic_full_sketch_two_iterations(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((8, 8))
        obj = quadratic_objective(G @ G.T + 2 * np.eye(8), rng.standard_normal(8))
        spec = SketchSpec("gaussian", k=8, seed_stream=6)
        x, trace = rsn_solve(obj, np.zeros(8), spec, max_iters=10, tol=1e-10)
        assert len(trace.f) <= 2
        assert np.linalg.norm(obj.gradient(x)) <= 1e-10

    def test_logistic_converges_monotonically(self):
        X, y = _logistic_data(200, 20, seed=7)
        obj = logistic_objective(X, y, ridge=1e-2)
        f_star = obj.value(full_newton(obj, np.zeros(20), tol=1e-12))
        spec = SketchSpec("gaussian", k=8, seed_stream=8)
        x, trace = rsn_solve(obj, np.zeros(20), spec, max_iters=400, tol=1e-8)
        f_vals = np.asarray(trace.f)
        assert np.all(np.diff(f_vals) <= 1e-12)
        assert obj.value(x) - f_star <= 1e-6
        assert trace.line_search_failures == 0

    def test_smaller_sketch_needs_more_iterations(self):
        X, y = _logistic_data(150, 12, seed=9)
        obj = logistic_objective(X, y, ridge=1e-2)

        def iters(k):
            spec = SketchSpec("gaussian", k=k, seed_stream=10)
            _, trace = rsn_solve(obj, np.zeros(12), spec, max_iters=3000, tol=1e-6)
            return len(trace.f)

        assert iters(1) > iters(10)

    def test_line_search_failure_skips_iteration(self):
        # sampling concentrated on a coordinate with zero gradient gives
        # S grad = 0, a null direction that cannot decrease f
        obj = quadratic_objective(np.eye(2), np.array([0.0, 1.0]))
        x0 = np.zeros(2)  # gradient (0, -1)
        p = np.array([1.0, 0.0])
        spec = SketchSpec("row_sampling", k=1, sampling=p, seed_stream=11)
        x, trace = rsn_solve(obj, x0, spec, max_iters=3, tol=1e-12)
        assert trace.line_search_failures == 3
        np.testing.assert_allclose(x, x0)


class TestRhoCertificate:
    def test_identity_hessian_symmetry(self):
        m, k, trials = 40, 4, 400
        cert = rho_certificate(np.eye(m), SketchSpec("gaussian", k=k, seed_stream=14), trials)
        assert cert.rho_hat == pytest.approx(k / m, abs=0.05)
        assert cert.crude_bound == pytest.approx(k / m)
        assert cert.crude_bound <= cert.rho_hat + 3.0 / np.sqrt(trials)

    def test_rank_deficient_hessian_uses_positive_spectrum(self):
        H = np.diag([2.0, 1.0, 0.0, 0.0])
        cert = rho_certificate(H, SketchSpec("gaussian", k=1, seed_stream=15), trials=50)
        assert cert.crude_bound == pytest.approx(1.0 / 3.0)  # 1 * 1 / tr
        assert cert.rho_hat > 0.0

    @pytest.mark.parametrize("family", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_k_above_rank_rejected(self, family, k):
        # Err(H^{1/2}, k-1) is roundoff once k - 1 >= rank(H) = 2: without the
        # check the refined bound read about -1e16 and the crude one exceeded 1
        H = np.diag([2.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=rf"k={k} exceeds rank\(H\)=2"):
            rho_certificate(H, SketchSpec(family, k=k, seed_stream=15), trials=50)
        cert = rho_certificate(H, SketchSpec(family, k=2, seed_stream=15), trials=50)
        assert 0.0 < cert.rho_hat <= 1.0 + 1e-12  # k = rank is still allowed
        assert cert.crude_bound == pytest.approx(2.0 / 3.0)

    def test_bound_chain_on_decaying_spectrum(self):
        # crude <= refined <= rho_hat + MC tolerance needs epsilon < 1, i.e.
        # a large enough rank, and Err << tr(H); use lambda_i = i^-2
        m, k, trials = 300, 5, 300
        rng = np.random.default_rng(16)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = 1.0 / np.arange(1, m + 1) ** 2
        H = (Q * lam) @ Q.T
        cert = rho_certificate(H, SketchSpec("gaussian", k=k, seed_stream=17), trials)
        assert 0.0 < cert.epsilon < 1.0
        assert cert.crude_bound <= cert.refined_bound
        assert cert.refined_bound <= cert.rho_hat + 3.0 / np.sqrt(trials)

    def test_matches_worst_case_rate_reduction(self):
        # rho(H) equals lambda_min(E[P]) of A = D^{1/2} U^T restricted to the
        # positive eigenspace
        from sketchsolve.spectral import expected_projection, worst_case_rate

        m, k, trials = 30, 3, 1500
        rng = np.random.default_rng(18)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = np.linspace(3.0, 0.5, m)
        H = (Q * lam) @ Q.T
        cert = rho_certificate(H, SketchSpec("gaussian", k=k, seed_stream=19), trials)
        A = _psd_sqrt(H)  # same row space; E[P] spectrum matches H^{1/2} input
        est = expected_projection(A, SketchSpec("gaussian", k=k, seed_stream=19), trials)
        assert cert.rho_hat == pytest.approx(worst_case_rate(est), abs=3.0 / np.sqrt(trials))

    @pytest.mark.parametrize("spec", [
        SketchSpec("rademacher", k=4, seed_stream=27),
        SketchSpec("less_uniform", k=4, s=3, seed_stream=28),
        SketchSpec("row_sampling", k=4, seed_stream=29),
    ], ids=lambda spec: spec.family)
    def test_matches_pinv_loop_on_same_draws(self, spec):
        # oracle: the mean of H^{1/2} S^T (S H S^T)^+ S H^{1/2} over the
        # certificate's own draws, built from the explicit square root
        m, trials = 12, 60
        rng = np.random.default_rng(30)
        G = rng.standard_normal((m, m))
        H = G @ G.T + 0.5 * np.eye(m)
        H_half = _psd_sqrt(H)
        acc = np.zeros((m, m))
        for t in range(trials):
            S = draw_sketch(spec, m, trial=t)
            W = symmetrize(apply_sketch(S, apply_sketch(S, H).T))
            Winv = np.linalg.pinv(W, rcond=m * np.finfo(float).eps, hermitian=True)
            SHh = apply_sketch(S, H_half)
            acc += SHh.T @ Winv @ SHh
        oracle = lambda_min_plus(acc / trials)
        cert = rho_certificate(H, spec, trials)
        assert cert.rho_hat == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("family", ["gaussian", "rademacher"])
    def test_rotated_rank_deficient_hessian(self, family):
        # rank 10 in R^30 with a random eigenbasis: k = rank sketches see the
        # whole range (rho = 1), and k = rank - 1 is far from 0
        m, r = 30, 10
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((m, m)))
        lam = np.concatenate([np.linspace(3.0, 0.5, r), np.zeros(m - r)])
        H = (Q * lam) @ Q.T
        full = rho_certificate(H, SketchSpec(family, k=r, seed_stream=3), 200)
        assert full.rho_hat == pytest.approx(1.0, abs=1e-12)
        short = rho_certificate(H, SketchSpec(family, k=r - 1, seed_stream=3), 200)
        assert short.rho_hat > 0.5


class TestLogisticObjective:
    def test_value_at_zero(self):
        X, y = _logistic_data(50, 4, seed=20)
        obj = logistic_objective(X, y, ridge=1e-2)
        assert obj.value(np.zeros(4)) == pytest.approx(np.log(2.0))

    def test_gradient_matches_finite_differences(self):
        X, y = _logistic_data(40, 6, seed=21)
        obj = logistic_objective(X, y, ridge=1e-2)
        w = np.random.default_rng(22).standard_normal(6) * 0.5
        g = obj.gradient(w)
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1e-5
            fd[i] = (obj.value(w + e) - obj.value(w - e)) / 2e-5
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_hessian_psd_with_ridge_floor(self):
        X, y = _logistic_data(30, 5, seed=23)
        ridge = 0.05
        obj = logistic_objective(X, y, ridge=ridge)
        w = np.random.default_rng(24).standard_normal(5)
        eigs = np.linalg.eigvalsh(obj.hessian(w))
        assert eigs[0] >= ridge - 1e-10

    def test_hessian_matches_gradient_differences(self):
        X, y = _logistic_data(30, 4, seed=25)
        obj = logistic_objective(X, y, ridge=1e-2)
        w = np.random.default_rng(26).standard_normal(4) * 0.3
        H = obj.hessian(w)
        fd = np.empty((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-6
            fd[:, i] = (obj.gradient(w + e) - obj.gradient(w - e)) / 2e-6
        np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-8)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            logistic_objective(np.eye(3), np.array([1.0, 0.0, -1.0]), ridge=1e-2)
        with pytest.raises(ValueError):
            logistic_objective(np.eye(3), np.array([1.0, 1.0, -1.0]), ridge=0.0)
