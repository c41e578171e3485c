import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsolve import linalg, matgen, solver
from sketchsolve.linalg import row_factor, symmetrize
from sketchsolve.matgen import LinearSystem, gen_gaussian_unit_rows, make_system
from sketchsolve.rng import as_key, stream
from sketchsolve.sketch import SketchSpec, build_less_distribution, draw_sketch, sketch_times
from sketchsolve.solver import (
    SolverConfig,
    eigencomponent_decay,
    estimate_rate,
    project_step,
    solve,
)


def _psd_power(B, p):
    """``B**p`` for symmetric positive definite B, via eigendecomposition."""
    w, V = np.linalg.eigh(symmetrize(B))
    return (V * w**p) @ V.T


def _random_system(m=40, n=8, seed=0, metric=None):
    A = gen_gaussian_unit_rows(m, n, seed=seed)
    return make_system(A, seed=seed + 1, metric=metric)


def _all_family_sketches(system, k, seed):
    p = build_less_distribution(system.A)
    specs = [
        SketchSpec("gaussian", k=k, seed_stream=seed),
        SketchSpec("rademacher", k=k, seed_stream=seed + 1),
        SketchSpec("less", k=k, s=5, sampling=p, seed_stream=seed + 2),
        SketchSpec("less_uniform", k=k, s=4, seed_stream=seed + 3),
        SketchSpec("row_sampling", k=k, sampling=p, seed_stream=seed + 4),
    ]
    return [draw_sketch(s, system.m, trial=t) for t, s in enumerate(specs)]


class TestProjectStep:
    def test_fixed_point_all_families(self):
        system = _random_system()
        for S in _all_family_sketches(system, 3, seed=10):
            x_new, _ = project_step(system.x_star.copy(), system, S)
            assert np.linalg.norm(x_new - system.x_star) <= 1e-10

    def test_full_rank_sketch_one_step(self):
        system = _random_system(m=30, n=6, seed=1)
        S = draw_sketch(SketchSpec("gaussian", k=6, seed_stream=2), 30, trial=0)
        x_new, _ = project_step(np.zeros(6), system, S)
        assert np.linalg.norm(x_new - system.x_star) <= 1e-8 * np.linalg.norm(system.x_star)

    def test_metric_projection_hand_example(self):
        # B = diag(4, 1), A = I2, constraint x_1 = 0 from S = e_1^T:
        # minimize 4 (x1-1)^2 + (x2-1)^2 over x1 = 0  ->  (0, 1)
        system = LinearSystem(
            A=np.eye(2), b=np.zeros(2), x_star=np.zeros(2),
            metric=np.diag([4.0, 1.0]),
        )
        x_new, _ = project_step(np.array([1.0, 1.0]), system, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(x_new, [0.0, 1.0], atol=1e-12)

    def test_constraint_satisfied_after_step(self):
        system = _random_system(m=50, n=10, seed=3)
        rng = np.random.default_rng(4)
        for t in range(20):
            S = draw_sketch(SketchSpec("gaussian", k=4, seed_stream=5), 50, trial=t)
            x = rng.standard_normal(10)
            x_new, _ = project_step(x, system, S)
            SA = S @ system.A
            resid = np.linalg.norm(SA @ x_new - S @ system.b)
            bound = 1e-8 * (np.linalg.norm(SA) * np.linalg.norm(x_new)
                            + np.linalg.norm(S @ system.b))
            assert resid <= bound

    def test_monotone_in_metric_norm(self):
        B = np.diag([5.0, 2.0, 1.0, 0.5, 3.0, 1.5, 2.5, 0.8])
        system = _random_system(seed=6, metric=B)
        rng = np.random.default_rng(107)
        for S in _all_family_sketches(system, 3, seed=20):
            x = rng.standard_normal(8)
            before = system.metric_norm(x - system.x_star)
            x_new, _ = project_step(x, system, S)
            after = system.metric_norm(x_new - system.x_star)
            assert after <= before * (1.0 + 1e-10)

    def test_singular_subproblem_takes_fallback(self):
        system = _random_system(m=30, n=6, seed=8)
        row = np.zeros(30)
        row[3] = 1.0
        S = np.vstack([row, row])  # duplicated constraint: singular k x k system
        x_new, fallback = project_step(np.ones(6), system, S)
        assert fallback
        before = np.linalg.norm(np.ones(6) - system.x_star)
        assert np.linalg.norm(x_new - system.x_star) <= before * (1.0 + 1e-10)

    def test_metric_reduction_equivalence(self):
        # B-metric projection == Euclidean projection on A B^{-1/2} after the
        # change of variables x_tilde = B^{1/2} x
        rng = np.random.default_rng(9)
        G = rng.standard_normal((8, 8))
        B = G @ G.T + 8 * np.eye(8)
        system_b = _random_system(m=40, n=8, seed=10, metric=B)
        B_half, B_inv_half = _psd_power(B, 0.5), _psd_power(B, -0.5)
        system_i = LinearSystem(
            A=system_b.A @ B_inv_half, b=system_b.b,
            x_star=B_half @ system_b.x_star,
        )
        x = rng.standard_normal(8)
        S = draw_sketch(SketchSpec("gaussian", k=3, seed_stream=11), 40, trial=0)
        x_b, _ = project_step(x, system_b, S)
        x_i, _ = project_step(B_half @ x, system_i, S)
        np.testing.assert_allclose(B_half @ x_b, x_i, atol=1e-8)

    def test_expected_one_step_contraction_identity(self):
        # over a batch of sketches the mean contraction equals
        # 1 - d^T mean_P d / ||d||^2 exactly (same sketches on both sides)
        from sketchsolve.spectral import projection_matrix

        system = _random_system(m=60, n=9, seed=12)
        spec = SketchSpec("gaussian", k=3, seed_stream=13)
        d = np.random.default_rng(14).standard_normal(9)
        x = system.x_star + d
        ratios, mean_P = [], np.zeros((9, 9))
        for t in range(500):
            S = draw_sketch(spec, 60, trial=t)
            x_new, _ = project_step(x, system, S)
            ratios.append(np.sum((x_new - system.x_star) ** 2) / np.sum(d**2))
            mean_P += projection_matrix(S, system.A)
        mean_P /= 500
        expected = 1.0 - d @ mean_P @ d / (d @ d)
        assert np.mean(ratios) == pytest.approx(expected, abs=1e-10)


def _err_path_case(metric, family):
    """A 40 x 8 system, Euclidean or in a random SPD metric, and a solver
    config that starts from a random x0 and runs 25 steps."""
    rng = np.random.default_rng(41)
    B = None
    if metric == "spd":
        G = rng.standard_normal((8, 8))
        B = G @ G.T + 8.0 * np.eye(8)
    system = _random_system(seed=39, metric=B)
    spec = SketchSpec(family, k=3, s=4 if family == "less_uniform" else None, seed_stream=40)
    cfg = SolverConfig(sketch=spec, max_iters=25, stop_tol=1e-12,
                       x0=rng.standard_normal(8))
    return system, cfg


_ERR_PATH_CASES = pytest.mark.parametrize("metric,family", [
    (metric, family) for metric in ("euclidean", "spd")
    for family in ("gaussian", "less_uniform")])


class TestSolve:
    @_ERR_PATH_CASES
    def test_err_path_matches_iterates_and_distances(self, metric, family):
        system, cfg = _err_path_case(metric, family)
        x, log = solve(system, cfg, trial=2)
        assert log.err.shape == (log.iterations + 1, system.n)
        assert np.array_equal(log.err[0], cfg.x0 - system.x_star)
        assert np.array_equal(log.err[-1], x - system.x_star)
        dist = np.array([system.metric_norm(e) for e in log.err])
        assert np.array_equal(dist, log.dist)  # bitwise: the stop rule reads dist

    def test_zero_solution_converges_immediately(self):
        A = gen_gaussian_unit_rows(20, 4, seed=15)
        system = LinearSystem(A=A, b=np.zeros(20), x_star=np.zeros(4))
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=16))
        x, log = solve(system, cfg)
        assert log.dist.size == 1
        np.testing.assert_allclose(x, 0.0)

    def test_full_sketch_converges_in_one_iteration(self):
        system = _random_system(m=1000, n=50, seed=17)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=50, seed_stream=18))
        _, log = solve(system, cfg)
        assert log.iterations == 1
        assert log.rel_err[-1] <= 1e-5

    def test_determinism(self):
        system = _random_system(seed=19)
        cfg = SolverConfig(sketch=SketchSpec("less_uniform", k=3, s=4, seed_stream=20),
                           max_iters=30)
        _, log1 = solve(system, cfg, trial=7)
        _, log2 = solve(system, cfg, trial=7)
        assert np.array_equal(log1.dist, log2.dist)
        _, log3 = solve(system, cfg, trial=8)
        assert not np.array_equal(log1.dist, log3.dist)

    def test_distances_non_increasing(self):
        system = _random_system(seed=21)
        cfg = SolverConfig(sketch=SketchSpec("rademacher", k=2, seed_stream=22), max_iters=80)
        _, log = solve(system, cfg)
        assert np.all(np.diff(log.dist) <= 1e-10 * log.dist[:-1] + 1e-300)

    def test_x0_override(self):
        system = _random_system(seed=23)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=24),
                           max_iters=5, x0=system.x_star)
        _, log = solve(system, cfg)
        assert log.dist.size == 1  # starts converged

    def test_augmented_factor_once_per_system(self, monkeypatch):
        def case():
            return _random_system(m=50, n=6, seed=50)

        system = case()
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=3, seed_stream=51), max_iters=30,
                           stop_tol=1e-300)
        shapes = []

        def counted(A):
            shapes.append(A.shape)
            return row_factor(A)

        monkeypatch.setattr(matgen, "row_factor", counted)
        logs = [solve(system, cfg, trial=r)[1] for r in (0, 1)]
        assert shapes == [(50, 7)]  # [A | b], factored on the first solve only
        assert np.array_equal(system._augmented_R,
                              row_factor(np.column_stack([system.A, system.b])))
        for r, log in enumerate(logs):
            fresh = solve(case(), cfg, trial=r)[1]
            for field in ("err", "dist", "rel_err", "fallback"):
                assert np.array_equal(getattr(log, field), getattr(fresh, field)), field

    @pytest.mark.parametrize("x0", [0.5, np.zeros(1), np.zeros(9)], ids=["scalar", "len1", "len9"])
    def test_x0_shape_checked(self, x0):
        system = _random_system(m=30, n=8, seed=52)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=53), x0=x0)
        with pytest.raises(ValueError, match=r"x0 has shape .*, expected \(8,\)"):
            solve(system, cfg)

    @pytest.mark.parametrize("max_iters", [2.5, 0, True, "3"])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            SolverConfig(sketch=SketchSpec("gaussian", k=2), max_iters=max_iters)


_FAMILIES = ("gaussian", "rademacher", "less", "less_uniform", "row_sampling")


def _per_step_reference(system, config, trial):
    """The iterates and fallback flags of one step at a time: ``sketch_times``
    on the stream of ``(*trial, t)`` and then ``solver._project``."""
    spec, n = config.sketch, system.n
    Ab = np.column_stack([system.A, system.b])
    R = row_factor(Ab) if spec.family == "gaussian" else None
    Binv = None if system.metric is None else np.linalg.inv(system.metric)
    denom = system.metric_norm(system.x_star)
    x, xs, flags = np.zeros(n), [np.zeros(n)], [False]
    for t in range(config.max_iters):
        if not system.metric_norm(x - system.x_star) / denom > config.stop_tol:
            break
        SAb = sketch_times(spec, Ab, stream(spec.seed_stream, as_key(trial) + (t,)), R)
        x, fallback = solver._project(x, SAb[:, :n], SAb[:, n], Binv)
        xs.append(x)
        flags.append(fallback)
    return np.array(xs), np.array(flags)


def _kernel_case(family, metric, A=None, k=3):
    rng = np.random.default_rng(60)
    A = gen_gaussian_unit_rows(60, 8, seed=61) if A is None else A
    n = A.shape[1]
    B = None
    if metric == "spd":
        G = rng.standard_normal((n, n))
        B = G @ G.T + 0.5 * n * np.eye(n)
    system = make_system(A, seed=62, metric=B)
    p = build_less_distribution(A) if family == "less" else None
    spec = SketchSpec(family, k=k, s=4 if family in ("less", "less_uniform") else None,
                      sampling=p, seed_stream=63)
    return system, spec


def _assert_matches_per_step(system, cfg, trial):
    """``solve`` takes the same steps, bit for bit, with the same flags."""
    x, log = solve(system, cfg, trial)
    ref, ref_fallback = _per_step_reference(system, cfg, trial)
    assert log.iterations == len(ref) - 1
    assert np.array_equal(log.fallback, ref_fallback)
    assert np.array_equal(log.err, ref - system.x_star)
    assert np.array_equal(x, ref[-1])
    return log


class TestBlockKernel:
    """``solve`` steps in blocks of ``solver._STEP_BLOCK``; each step must be
    the one-step-at-a-time path it replaces."""

    @pytest.mark.parametrize("metric", ["euclidean", "spd"])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_budget_not_a_block_multiple(self, family, metric):
        system, spec = _kernel_case(family, metric)
        cfg = SolverConfig(sketch=spec, max_iters=37, stop_tol=1e-300)
        assert cfg.max_iters % solver._STEP_BLOCK != 0
        assert _assert_matches_per_step(system, cfg, (2, 1)).iterations == 37

    @pytest.mark.parametrize("metric", ["euclidean", "spd"])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_stop_inside_a_block(self, family, metric):
        system, spec = _kernel_case(family, metric)
        loose = SolverConfig(sketch=spec, max_iters=40, stop_tol=1e-300)
        ref = _per_step_reference(system, loose, 4)[0]
        rel = np.array([system.metric_norm(e) for e in ref - system.x_star])
        rel /= system.metric_norm(system.x_star)
        stop = 13  # tolerance between the errors after steps 12 and 13
        assert stop % solver._STEP_BLOCK != 0 and rel[stop] < rel[stop - 1]
        cfg = SolverConfig(sketch=spec, max_iters=40,
                           stop_tol=float(np.sqrt(rel[stop] * rel[stop - 1])))
        assert _assert_matches_per_step(system, cfg, 4).iterations == stop

    @pytest.mark.parametrize("metric", ["euclidean", "spd"])
    def test_row_sampling_with_repeated_rows(self, metric, monkeypatch):
        # repeated rows make some W_t singular: a block holds a W_t that is not
        # positive definite, and a W_t that factors but fails solve_psd's guard
        A = np.repeat(gen_gaussian_unit_rows(10, 6, seed=64), 4, axis=0)
        system, spec = _kernel_case("row_sampling", metric, A=A, k=4)
        cfg = SolverConfig(sketch=spec, max_iters=120, stop_tol=1e-300)
        blocks, certified = [], linalg._certified

        def recorded_certified(W):
            verdict = certified(W)
            if W.ndim == 3:
                blocks.append((W, verdict))
            return verdict

        monkeypatch.setattr(solver, "_certified", recorded_certified)
        solve(system, cfg, 2)
        monkeypatch.undo()
        assert len(blocks) == -(-cfg.max_iters // solver._STEP_BLOCK)
        not_pd = guard_failed = 0
        for W, verdict in blocks:
            assert np.array_equal(verdict, [certified(Wt) for Wt in W])
            for Wt in W[~verdict]:
                try:
                    np.linalg.cholesky(Wt)
                    guard_failed += 1
                except np.linalg.LinAlgError:
                    not_pd += 1
        assert not_pd and guard_failed
        log = _assert_matches_per_step(system, cfg, 2)
        assert log.fallback.sum() == sum(int((~verdict).sum()) for _, verdict in blocks)


class TestNumpyPins:
    """The step's direct numpy entry points give numpy's public results, bit
    for bit.  ``solve`` and ``_project`` both solve through ``linalg._lu_solve``,
    so :class:`TestBlockKernel` alone does not tie them to ``np.linalg.solve``."""

    @pytest.mark.parametrize("k", [1, 5, 20, 40])
    def test_lu_solve_is_numpy_solve(self, k):
        system = _random_system(m=100, n=50, seed=k)
        spec = SketchSpec("gaussian", k=k, seed_stream=7)
        Ab = np.column_stack([system.A, system.b])
        SAb = sketch_times(spec, Ab, stream(spec.seed_stream, (0, 0)), row_factor(Ab))
        M, c = SAb[:, :50], SAb[:, 50]
        W, r = M @ M.T, M @ np.ones(50) - c
        assert linalg._certified(W)
        assert np.array_equal(linalg._lu_solve(W, r), np.linalg.solve(W, r))
        assert np.array_equal(linalg.solve_psd(W, r, n_ambient=50)[0], np.linalg.solve(W, r))

    @pytest.mark.parametrize("metric", ["euclidean", "spd"])
    def test_cholesky_lo_is_numpy_cholesky(self, metric):
        # row_sampling W_t of repeated rows: some are not positive definite
        A = np.repeat(gen_gaussian_unit_rows(10, 6, seed=64), 4, axis=0)
        system, spec = _kernel_case("row_sampling", metric, A=A, k=4)
        M = np.stack([sketch_times(spec, system.A, stream(spec.seed_stream, (2, t)))
                      for t in range(16)])
        Binv = np.eye(6) if system.metric is None else np.linalg.inv(system.metric)
        W = M @ Binv @ M.transpose(0, 2, 1)
        cholesky_lo = np.linalg._umath_linalg.cholesky_lo
        with np.errstate(all="ignore"):  # as linalg._certified calls it
            L = cholesky_lo(W, signature="d->d")
        failed = np.zeros(len(W), dtype=bool)
        for t, Wt in enumerate(W):
            try:
                assert np.array_equal(L[t], np.linalg.cholesky(Wt))
            except np.linalg.LinAlgError:
                failed[t] = True
                assert np.isnan(L[t]).all()
        assert failed.any() and not failed.all()
        # the stacked call on positive definite W sets no flag, and no warning
        # escapes the suite's filterwarnings = error from the guard itself
        assert np.array_equal(cholesky_lo(W[~failed], signature="d->d"),
                              np.linalg.cholesky(W[~failed]))
        assert not linalg._certified(W)[failed].any()

    @pytest.mark.parametrize("v", [np.zeros(0), np.array([-3.5]),
                                   np.random.default_rng(8).standard_normal(50),
                                   1e200 * np.random.default_rng(9).standard_normal(50)],
                             ids=["empty", "one", "random", "overflow"])
    def test_euclidean_metric_norm_is_numpy_norm(self, v):
        system = _random_system()
        with np.errstate(over="ignore"):  # the overflow case is inf both ways
            got, want = system.metric_norm(v), float(np.linalg.norm(v))
        assert type(got) is float and got == want


class TestEstimateRate:
    def test_full_rank_sketch_rate_one(self):
        system = _random_system(m=30, n=5, seed=25)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=5, seed_stream=26))
        report = estimate_rate(system, cfg, runs=3, tail=10)
        assert report.empirical_rate == pytest.approx(1.0, abs=1e-10)
        assert report.short_tail  # single-step runs cannot fill a 10-step tail

    def test_identity_symmetry_oracle(self):
        # E[P] = (k/n) I so the contraction factor is k/n in every direction
        n, k = 100, 10
        system = make_system(np.eye(n), seed=27)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=k, seed_stream=28))
        report = estimate_rate(system, cfg, runs=100, tail=50)
        assert report.empirical_rate == pytest.approx(k / n, abs=0.02)

    def test_insufficient_iterations(self):
        A = gen_gaussian_unit_rows(20, 4, seed=29)
        system = LinearSystem(A=A, b=np.zeros(20), x_star=np.zeros(4))
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=30))
        with pytest.raises(ValueError, match="fewer than 2"):
            estimate_rate(system, cfg, runs=1, tail=5)

    def test_pools_all_available_when_tail_exceeds_run(self):
        system = _random_system(m=30, n=5, seed=31)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=4, seed_stream=32), max_iters=6,
                           stop_tol=1e-12)
        report = estimate_rate(system, cfg, runs=1, tail=500)
        assert report.short_tail
        assert report.samples <= 6

    @pytest.mark.parametrize("case", ["euclidean", "metric", "zero_solution"])
    def test_every_tail_step_is_a_sample(self, case):
        # solve steps only while rel_err > stop_tol > 0, so no tail step
        # starts from distance 0 and each one is a sample
        if case == "zero_solution":
            A = gen_gaussian_unit_rows(30, 5, seed=33)
            system = LinearSystem(A=A, b=np.zeros(30), x_star=np.zeros(5))
            x0 = np.ones(5)
        else:
            metric = np.diag(np.linspace(1.0, 3.0, 5)) if case == "metric" else None
            system, x0 = _random_system(m=30, n=5, seed=33, metric=metric), None
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=3, seed_stream=34), max_iters=40,
                           stop_tol=1e-6, x0=x0)
        runs, tail = 4, 25
        steps = [solve(system, cfg, trial=r)[1].iterations for r in range(runs)]
        report = estimate_rate(system, cfg, runs, tail)
        assert report.samples == sum(min(tail, s) for s in steps)


class TestEigencomponentDecay:
    def test_identity_uniform_contraction(self):
        n, k = 40, 8
        system = make_system(np.eye(n), seed=33)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=k, seed_stream=34), max_iters=40,
                           stop_tol=1e-12)
        contraction = eigencomponent_decay(system, cfg, np.eye(n), runs=40)
        np.testing.assert_allclose(contraction, 1.0 - k / n, atol=0.1)

    def test_matches_expected_projection_eigenbasis(self):
        from sketchsolve.spectral import expected_projection

        system = _random_system(m=60, n=6, seed=35)
        spec = SketchSpec("gaussian", k=2, seed_stream=36)
        est = expected_projection(system.A, spec.with_seed(99), trials=3000)
        eigvals, eigvecs = np.linalg.eigh(est.mean_P)
        cfg = SolverConfig(sketch=spec, max_iters=60, stop_tol=1e-10)
        contraction = eigencomponent_decay(system, cfg, eigvecs, runs=60)
        np.testing.assert_allclose(contraction, 1.0 - eigvals, atol=0.06)

    @_ERR_PATH_CASES
    def test_matches_per_step_component_reference(self, metric, family):
        system, cfg = _err_path_case(metric, family)
        V = np.linalg.svd(system.A, full_matrices=False)[2].T
        runs = 4
        cross = energy = 0.0
        for r in range(runs):
            err = solve(system, cfg, trial=r)[1].err
            c = np.array([V.T @ e for e in err])
            prev, cur = c[:-1], c[1:]
            valid = np.abs(prev) > 1e-10
            cross = cross + np.sum(prev * cur * valid, axis=0)
            energy = energy + np.sum(prev * prev * valid, axis=0)
        contraction = eigencomponent_decay(system, cfg, V, runs)
        np.testing.assert_allclose(contraction, cross / energy, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("runs", [0, -1])
    def test_runs_must_be_positive(self, runs):
        system = _random_system(seed=37)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=38))
        with pytest.raises(ValueError, match="runs must be >= 1"):
            eigencomponent_decay(system, cfg, np.eye(8), runs=runs)

    def test_non_orthonormal_basis_rejected(self):
        system = _random_system(seed=37)
        cfg = SolverConfig(sketch=SketchSpec("gaussian", k=2, seed_stream=38))
        with pytest.raises(ValueError, match="orthonormal"):
            eigencomponent_decay(system, cfg, np.ones((8, 2)), runs=2)


def _invariant_case(seed, m, n, k, family, metric):
    """A random consistent system, an optional SPD metric and a sketch spec."""
    rng = np.random.default_rng(seed)
    B = None
    if metric:
        L = rng.standard_normal((n, n))
        B = L @ L.T + 0.5 * n * np.eye(n)
    system = _random_system(m=m, n=n, seed=seed, metric=B)
    p = build_less_distribution(system.A)
    spec = SketchSpec(family, k=min(k, m), s=3 if family in ("less", "less_uniform") else None,
                      sampling=p if family == "less" else None, seed_stream=seed + 1)
    return system, spec, rng


_CASES = dict(seed=st.integers(0, 2**20), m=st.integers(10, 30), n=st.integers(2, 7),
              k=st.integers(1, 8), family=st.sampled_from(_FAMILIES), metric=st.booleans())


class TestSolverInvariants:
    @given(**_CASES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_project_step_is_idempotent(self, seed, m, n, k, family, metric):
        system, spec, rng = _invariant_case(seed, m, n, k, family, metric)
        S = draw_sketch(spec, m, trial=0)
        x = rng.standard_normal(n)
        x1, _ = project_step(x, system, S)
        x2, _ = project_step(x1, system, S)
        scale = np.linalg.norm(x) + np.linalg.norm(system.x_star)
        assert np.linalg.norm(x2 - x1) <= 1e-9 * scale

    @given(**_CASES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_metric_error_never_grows(self, seed, m, n, k, family, metric):
        system, spec, _ = _invariant_case(seed, m, n, k, family, metric)
        cfg = SolverConfig(sketch=spec, max_iters=25, stop_tol=1e-300)
        _, log = solve(system, cfg, trial=(seed % 7,))
        # roundoff floor: 1e-10 of the starting error ||x*||_B
        assert np.all(np.diff(log.dist) <= 1e-10 * (log.dist[:-1] + log.dist[0]))


class TestRankDeficientConvergence:
    @given(seed=st.integers(0, 2**20), m=st.integers(8, 30), n=st.integers(2, 8),
           rank_gap=st.integers(1, 6), k=st.integers(1, 8),
           family=st.sampled_from(("gaussian", "row_sampling")))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_converges_to_least_norm_solution(self, seed, m, n, rank_gap, k, family):
        # consistent A x = b with rank(A) < n: from x0 = 0 the iterates stay
        # in rowspan(A), so the limit is the least-norm solution pinv(A) b
        rank = max(1, n - rank_gap)
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((m, rank)))
        V, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        A = (U * rng.uniform(1.0, 10.0, rank)) @ V.T
        system = make_system(A, seed=seed + 1)
        assert system.rank < system.n
        x_ls = np.linalg.pinv(A) @ system.b
        cfg = SolverConfig(sketch=SketchSpec(family, k=k, seed_stream=seed + 2),
                           max_iters=20000, stop_tol=1e-9)
        x, _ = solve(system, cfg, trial=0)
        assert np.linalg.norm(x - x_ls) <= 1e-8 * np.linalg.norm(x_ls)


def test_hypothesis_example_printer_imports_under_suite_filters():
    # hypothesis prints a falsifying example through libcst; under the
    # suite's warnings-as-errors filter that import must not raise, or a
    # failing property test ends in an INTERNALERROR without its example.
    # (pytest.importorskip ignores warnings while it imports, so it would
    # not see the failure.)
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    importlib.import_module("libcst.metadata.type_inference_provider")
