import gc
import weakref

import numpy as np
import pytest

from sketchsolve.linalg import lambda_min_plus, solve_psd, symmetrize
from sketchsolve.matgen import LinearSystem
from sketchsolve.newton import (
    ConvexObjective,
    _sandwich,
    full_newton,
    logistic_objective,
    quadratic_objective,
    rho_certificate,
    rsn_solve,
    rsn_step,
)
from sketchsolve.sketch import SketchSpec, apply_sketch, apply_sketch_t, draw_sketch
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

    def test_bad_x0_rejected(self):
        obj = quadratic_objective(np.eye(3), np.ones(3))
        spec = SketchSpec("gaussian", k=2, seed_stream=12)
        for x0 in (np.zeros(2), np.zeros((3, 1)), 0.0):
            with pytest.raises(ValueError, match=r"expected \(3,\)"):
                rsn_solve(obj, x0, spec)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.0, True, "5"])
    def test_bad_max_iters_rejected(self, max_iters):
        obj = quadratic_objective(np.eye(3), np.ones(3))
        spec = SketchSpec("gaussian", k=2, seed_stream=12)
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            rsn_solve(obj, np.zeros(3), spec, max_iters=max_iters)

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


def _rsn_step_full_hessian(obj, x, S, eta=1.0):
    """RSN step from the explicit d x d Hessian, sketched from both sides."""
    W = symmetrize(apply_sketch(S, apply_sketch(S, obj.hessian(x)).T))
    z, _ = solve_psd(W, apply_sketch(S, obj.gradient(x)), n_ambient=obj.dim)
    return x + eta * -apply_sketch_t(S, z)


class TestSketchedHessian:
    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "less", "less_uniform",
                                        "row_sampling"])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_logistic_oracle_matches_full_sandwich(self, family, k):
        X, y = _logistic_data(60, 9, seed=31)
        obj = logistic_objective(X, y, ridge=1e-2)
        rng = np.random.default_rng(32)
        p = rng.random(9)
        spec = SketchSpec(family, k=k, s=4, sampling=p / p.sum() if family == "less" else None,
                          seed_stream=33)
        w = rng.standard_normal(9)
        for t in range(3):
            S = draw_sketch(spec, 9, trial=t)
            ref = _sandwich(S, obj.hessian(w))
            np.testing.assert_allclose(obj.at(w)[2](S)[0], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_logistic_oracle_sums_repeated_indices(self):
        # s = d draws with replacement: almost every row repeats an index
        X, y = _logistic_data(50, 5, seed=34)
        obj = logistic_objective(X, y, ridge=1e-2)
        S = draw_sketch(SketchSpec("less_uniform", k=4, s=5, seed_stream=35), 5, trial=0)
        assert any(np.unique(row).size < row.size for row in S.indices)
        w = np.random.default_rng(36).standard_normal(5)
        ref = _sandwich(S, obj.hessian(w))
        np.testing.assert_allclose(obj.at(w)[2](S)[0], ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("family", ["gaussian", "less_uniform"])
    def test_default_oracle_keeps_full_hessian_arithmetic(self, family):
        # objectives without their own oracle sketch hessian(x): bit-identical
        rng = np.random.default_rng(37)
        G = rng.standard_normal((8, 8))
        H = G @ G.T + np.eye(8)
        b = rng.standard_normal(8)
        quad = quadratic_objective(H, b)
        hand = ConvexObjective(8, lambda x: 0.5 * x @ (H @ x) - b @ x,
                               lambda x: H @ x - b, lambda x: H)
        spec = SketchSpec(family, k=3, s=4, seed_stream=38)
        x = rng.standard_normal(8)
        for obj in (quad, hand):
            for t in range(3):
                S = draw_sketch(spec, 8, trial=t)
                np.testing.assert_array_equal(rsn_step(obj, x, S, eta=0.5),
                                              _rsn_step_full_hessian(obj, x, S, eta=0.5))

    def test_rsn_solve_never_forms_logistic_hessian(self):
        X, y = _logistic_data(100, 12, seed=39)
        obj = logistic_objective(X, y, ridge=1e-2)
        calls = []
        hessian = obj.hessian
        obj.hessian = lambda w: calls.append(1) or hessian(w)
        spec = SketchSpec("gaussian", k=4, seed_stream=40)
        _, trace = rsn_solve(obj, np.zeros(12), spec, max_iters=10, tol=0.0)
        assert len(trace.f) == 10
        assert calls == []


def _recording(obj, steps):
    """``obj`` with its oracle wrapped: each sketched step appends ``(g, d,
    trials)`` to ``steps``, with trials the ``(eta, f(x + eta d))`` pairs its
    line search tried (d is None and trials empty if it made none)."""

    def spy(point):
        f, g, sketched = point

        def spy_sketched(S):
            W, line = sketched(S)
            step = [g, None, []]
            steps.append(step)

            def spy_line(d, z):
                along = line(d, z)
                step[1] = d

                def spy_along(eta):
                    f_eta, move = along(eta)
                    step[2].append((eta, f_eta))
                    return f_eta, lambda: spy(move())

                return spy_along

            return W, spy_line

        return f, g, spy_sketched

    recorded = ConvexObjective(obj.dim, obj.value, obj.gradient, obj.hessian)
    recorded.at = lambda w: spy(obj.at(w))
    return recorded


def _iterates(x0, steps, f):
    """The points an RSN run visited, replayed from :func:`_recording`'s steps
    and the run's ``trace.f``: a step moves by its last trial eta when that
    trial passed the Armijo test."""
    xs = [np.asarray(x0, dtype=float)]
    for (g, d, trials), f_x in zip(steps, f):
        x = xs[-1]
        if trials:
            eta, f_eta = trials[-1]
            if f_eta <= f_x + 1e-4 * eta * float(g @ d):
                x = x + eta * d
        xs.append(x)
    return xs


class TestPointOracle:
    @pytest.mark.parametrize("family", ["gaussian", "less_uniform", "row_sampling"])
    def test_logistic_oracle_matches_default_oracle(self, family):
        # a far start makes some steps backtrack, so the line search along
        # X d = -(X S^T) z is checked against value(x + eta d) at several eta;
        # the logistic oracle carries f and the margins from its line search,
        # so x, f and the gradient norm agree to rounding, the decisions exactly
        X, y = _logistic_data(60, 8, seed=41)
        obj = logistic_objective(X, y, ridge=1e-4)

        def fresh(w):
            """The point at w from value and gradient, with no state carried."""
            def sketched(S):
                def line(d, z):
                    return lambda eta: (obj.value(w + eta * d), lambda: fresh(w + eta * d))
                return obj.at(w)[2](S)[0], line
            return obj.value(w), obj.gradient(w), sketched

        generic = ConvexObjective(8, obj.value, obj.gradient, obj.hessian)
        generic.at = fresh
        x0 = 5.0 * np.random.default_rng(41).standard_normal(8)
        spec = SketchSpec(family, k=3, s=3, seed_stream=42)
        steps, steps_ref = [], []
        x, trace = rsn_solve(_recording(obj, steps), x0, spec, max_iters=40, tol=1e-10)
        x_ref, trace_ref = rsn_solve(_recording(generic, steps_ref), x0, spec,
                                     max_iters=40, tol=1e-10)
        etas = [[eta for eta, _ in step[2]] for step in steps]
        assert etas == [[eta for eta, _ in step[2]] for step in steps_ref]
        assert any(len(e) > 1 for e in etas)
        assert len(trace.f) == len(trace_ref.f)
        assert trace.line_search_failures == trace_ref.line_search_failures
        # the carried margins are within an ulp of y * (X x); along this
        # far-start trajectory (curvatures near e^-75, ridge 1e-4) that grows
        # to 1.4e-11 in f and 2.4e-11 in the gradient norm (less_uniform).
        # test_carried_point_matches_fresh_evaluation pins the oracle itself
        # to 1e-12 at the same iterates
        np.testing.assert_allclose(x, x_ref, rtol=1e-10)
        np.testing.assert_allclose(trace.f, trace_ref.f, rtol=1e-10)
        np.testing.assert_allclose(trace.grad_norm, trace_ref.grad_norm, rtol=1e-10)

    def test_carried_point_matches_fresh_evaluation(self):
        # criterion 10's size, 500 steps with tol=0, so the run goes on into
        # the regime where rounding decides the Armijo test: at every iterate
        # the carried f agrees with value(x), the gradient with gradient(x)
        # on the gradient's scale, and every decision that rounding cannot
        # flip is the one value and gradient take
        X, y = _logistic_data(500, 50, seed=47)
        obj = logistic_objective(X, y, ridge=1e-2)
        spec = SketchSpec("gaussian", k=10, seed_stream=48)
        steps = []
        x, trace = rsn_solve(_recording(obj, steps), np.zeros(50), spec, max_iters=500,
                             tol=0.0)
        xs = _iterates(np.zeros(50), steps, trace.f)
        assert len(xs) == len(trace.f) + 1 == 501
        np.testing.assert_array_equal(xs[-1], x)
        np.testing.assert_allclose(trace.f, [obj.value(w) for w in xs[:-1]], rtol=1e-12)
        grads = [obj.gradient(w) for w in xs[:-1]]
        np.testing.assert_allclose(trace.grad_norm, np.linalg.norm(grads, axis=1), rtol=0.0,
                                   atol=1e-12 * np.linalg.norm(grads[0]))
        assert min(trace.grad_norm) < 1e-12
        resolved = 0
        for (g_carried, d, trials), w, f_w, g in zip(steps, xs, trace.f, grads):
            f_fresh = obj.value(w)
            for eta, f_eta in trials:
                margin = obj.value(w + eta * d) - (f_fresh + 1e-4 * eta * float(g @ d))
                if abs(margin) > 1e-12 * abs(f_fresh):
                    resolved += 1
                    assert (f_eta <= f_w + 1e-4 * eta * float(g_carried @ d)) == (margin <= 0.0)
        assert resolved > 100

    def test_default_oracle_carries_value_bitwise(self):
        X, y = _logistic_data(60, 8, seed=49)
        logistic = logistic_objective(X, y, ridge=1e-4)
        obj = ConvexObjective(8, logistic.value, logistic.gradient, logistic.hessian)
        x0 = 5.0 * np.random.default_rng(49).standard_normal(8)
        steps = []
        x, trace = rsn_solve(_recording(obj, steps), x0, SketchSpec("gaussian", k=3, seed_stream=50),
                             max_iters=40, tol=1e-10)
        xs = _iterates(x0, steps, trace.f)
        assert any(len(trials) > 1 for _, _, trials in steps)
        np.testing.assert_array_equal(xs[-1], x)
        np.testing.assert_array_equal(trace.f, [obj.value(w) for w in xs[:len(trace.f)]])
        np.testing.assert_array_equal(trace.grad_norm,
                                      [np.linalg.norm(obj.gradient(w)) for w in xs[:len(trace.f)]])
        for (_, d, trials), w in zip(steps, xs):
            assert [f_eta for _, f_eta in trials] == [obj.value(w + eta * d) for eta, _ in trials]

    @pytest.mark.parametrize("family", ["gaussian", "less_uniform"])
    def test_no_reference_cycle_holds_X(self, family):
        # the objective's points and closures must free X by reference
        # counting alone, or each run keeps its data until a full collection
        X, y = _logistic_data(100, 12, seed=51)
        gc.disable()
        try:
            obj = logistic_objective(X, y, ridge=1e-2)
            spec = SketchSpec(family, k=4, s=3, seed_stream=52)
            _, trace = rsn_solve(obj, np.zeros(12), spec, max_iters=20, tol=0.0)
            assert len(trace.f) == 20
            ref = weakref.ref(X)
            del obj, X
            assert ref() is None
        finally:
            gc.enable()

    def test_default_oracle_is_no_reference_cycle(self):
        # an objective without its own oracle must free its data (H, b) by
        # reference counting alone, also after its default oracle has run
        H = np.eye(300)
        gc.disable()
        try:
            obj = quadratic_objective(H, np.ones(300))
            rsn_solve(obj, np.zeros(300), SketchSpec("gaussian", k=4, seed_stream=53),
                      max_iters=3, tol=0.0)
            ref = weakref.ref(obj)
            del obj
            assert ref() is None
        finally:
            gc.enable()

    def test_rsn_solve_reads_only_the_logistic_oracle(self):
        X, y = _logistic_data(100, 12, seed=43)
        obj = logistic_objective(X, y, ridge=1e-2)

        def forbidden(*args):
            raise AssertionError("rsn_solve called a separate callback")

        obj.value = obj.gradient = obj.hessian = forbidden
        spec = SketchSpec("gaussian", k=4, seed_stream=44)
        _, trace = rsn_solve(obj, np.zeros(12), spec, max_iters=10, tol=0.0)
        assert len(trace.f) == 10


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
        oracle = lambda_min_plus(np.linalg.eigvalsh(symmetrize(acc / trials)))
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

    def test_large_margins_do_not_overflow(self):
        # margins y * x w = (800, -1600): exp(+-margin) overflowed in the
        # gradient and both Hessians, an error under warnings-as-errors
        obj = logistic_objective(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]), ridge=0.01)
        w = np.array([800.0])
        # sigma(-800) underflows to 0 and sigma(1600) is 1: g = -(2 * -1) / 2 + 8
        np.testing.assert_allclose(obj.gradient(w), [9.0])
        np.testing.assert_allclose(obj.hessian(w), [[0.01]])  # curvatures underflow to 0
        np.testing.assert_allclose(obj.at(w)[2](np.array([[2.0]]))[0], [[0.04]])
        assert np.isfinite(obj.value(w))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            logistic_objective(np.eye(3), np.array([1.0, 0.0, -1.0]), ridge=1e-2)
        with pytest.raises(ValueError):
            logistic_objective(np.eye(3), np.array([1.0, 1.0, -1.0]), ridge=0.0)
