"""The Gaussian row-factor reduction behind ``sketch_times``.

With ``A = Q R`` (Q orthonormal columns) and a k x rows(R) Gaussian G, the
dense sketch ``S = G Q^T`` gives ``S A = G R`` exactly.  So every caller that
draws through ``sketch_times`` must agree with the single-sample functions
that take S (``project_step``, ``residual_error``, ``projection_matrix``)
evaluated on that S; the other families draw the same sketches as before.
"""

import numpy as np
import pytest

from sketchsolve.linalg import symmetrize
from sketchsolve.matgen import LinearSystem, gen_gaussian_unit_rows
from sketchsolve.randsvd import err_monte_carlo, residual_error
from sketchsolve.rng import stream
from sketchsolve.sketch import (
    SketchSpec,
    apply_sketch,
    build_less_distribution,
    draw_sketch,
    row_factor,
    sketch_times,
)
from sketchsolve.solver import SolverConfig, project_step, solve
from sketchsolve.spectral import expected_projection, projection_matrix

TOL = 1e-12


def _known_q(M):
    """Orthonormal Q with ``M = Q row_factor(M)``."""
    Q, R = np.linalg.qr(M)
    assert np.array_equal(R, row_factor(M))
    return Q


def _lifted(spec, Q, trial):
    """Dense k x m sketch ``G Q^T``, G from the trial's stream: ``S (Q R) = G R``."""
    G = stream(spec.seed_stream, trial).standard_normal((spec.k, Q.shape[1]))
    return G @ Q.T


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.max(np.abs(a - b)) <= TOL * max(1.0, float(np.max(np.abs(b))))


def _matrix(m=60, n=6, seed=3):
    return gen_gaussian_unit_rows(m, n, seed=seed) * np.linspace(3.0, 0.5, n)


def _other_specs(A):
    p = build_less_distribution(A).probabilities
    return [
        SketchSpec("rademacher", k=4, seed_stream=11),
        SketchSpec("less", k=4, s=5, sampling=p, seed_stream=12),
        SketchSpec("less_uniform", k=4, s=3, seed_stream=13),
        SketchSpec("row_sampling", k=4, sampling=p, seed_stream=14),
    ]


class TestSketchTimes:
    def test_gaussian_equals_lifted_sketch(self):
        A = _matrix()
        Q = _known_q(A)
        spec = SketchSpec("gaussian", k=4, seed_stream=5)
        for t in range(3):
            _close(sketch_times(spec, A, t), apply_sketch(_lifted(spec, Q, t), A))
            assert np.array_equal(sketch_times(spec, A, t, row_factor(A)),
                                  sketch_times(spec, A, t))

    def test_k_above_factor_rows(self):
        A = _matrix(m=30, n=4)
        SA = sketch_times(SketchSpec("gaussian", k=10, seed_stream=1), A, 0)
        assert SA.shape == (10, 4)
        assert np.linalg.matrix_rank(SA) == 4
        with pytest.raises(ValueError, match="exceeds"):
            sketch_times(SketchSpec("gaussian", k=31, seed_stream=1), A, 0)

    def test_other_families_bit_identical(self):
        A = _matrix()
        R = row_factor(A)
        for spec in _other_specs(A):
            for t in range(3):
                expected = apply_sketch(draw_sketch(spec, A.shape[0], t), A)
                assert np.array_equal(sketch_times(spec, A, t), expected), spec.family
                assert np.array_equal(sketch_times(spec, A, t, R), expected), spec.family


class TestReducedCallers:
    @pytest.mark.parametrize("consistent", [True, False])
    @pytest.mark.parametrize("metric", [False, True])
    def test_solve_matches_project_step(self, consistent, metric):
        A = _matrix()
        m, n = A.shape
        rng = stream(7)
        x_star = rng.standard_normal(n)
        b = A @ x_star
        if not consistent:
            b = b + 0.3 * rng.standard_normal(m)
        B = None
        if metric:
            L = rng.standard_normal((n, n))
            B = L @ L.T + n * np.eye(n)
        system = LinearSystem(A=A, b=b, x_star=x_star, metric=B)
        Q = _known_q(np.column_stack([A, b]))
        spec = SketchSpec("gaussian", k=3, seed_stream=9)
        cfg = SolverConfig(sketch=spec, max_iters=12, stop_tol=1e-300)
        x, log = solve(system, cfg, trial=(2,))
        y = np.zeros(n)
        dist = [system.metric_norm(y - x_star)]
        for t in range(12):
            y, _ = project_step(y, system, _lifted(spec, Q, (2, t)))
            dist.append(system.metric_norm(y - x_star))
        _close(x, y)
        _close(log.dist, dist)

    def test_err_monte_carlo_matches_residual_error(self):
        A = _matrix()
        Q = _known_q(A)
        spec3 = SketchSpec("gaussian", k=3, seed_stream=21)
        est = err_monte_carlo(A, spec3, trials=6)
        samples = [residual_error(A, _lifted(spec3, Q, t)) for t in range(6)]
        _close(est.mean, np.mean(samples))
        _close(est.stderr, np.std(samples, ddof=1) / np.sqrt(6))

    def test_err_monte_carlo_exact_for_other_families(self):
        A = _matrix()
        for spec in _other_specs(A):
            est = err_monte_carlo(A, spec, trials=5)
            samples = [residual_error(A, draw_sketch(spec, A.shape[0], t)) for t in range(5)]
            _close(est.mean, np.mean(samples))

    def test_expected_projection_matches_projection_matrix(self):
        A = _matrix()
        Q = _known_q(A)
        spec = SketchSpec("gaussian", k=3, seed_stream=31)
        est = expected_projection(A, spec, trials=8)
        mean = sum(projection_matrix(_lifted(spec, Q, t), A) for t in range(8)) / 8
        _close(est.mean_P, symmetrize(mean))

    def test_expected_projection_other_families_unchanged(self):
        A = _matrix()
        for spec in _other_specs(A):
            est = expected_projection(A, spec, trials=4)
            acc = np.zeros((A.shape[1], A.shape[1]))
            for t in range(4):
                acc += projection_matrix(draw_sketch(spec, A.shape[0], t), A)
            _close(est.mean_P, symmetrize(acc / 4))
