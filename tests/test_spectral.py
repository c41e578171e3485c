import math

import numpy as np
import pytest

from sketchsolve.matgen import SpectralProfile, gen_gaussian_unit_rows, gen_spectral_matrix
from sketchsolve.randsvd import err_km1
from sketchsolve.sketch import SketchSpec, draw_sketch
from sketchsolve.spectral import (
    decay_rate_bound,
    expected_projection,
    gamma_implicit,
    gaussian_rate_bound,
    gaussian_rate_variant,
    projection_matrix,
    rate_bound_set,
    surrogate_eigenvalues,
    surrogate_vs_empirical,
    worst_case_rate,
)


class TestExpectedProjection:
    def test_identity_symmetry_oracle(self):
        # rotational symmetry forces E[P] = (k/n) I
        n, k = 60, 6
        est = expected_projection(np.eye(n), SketchSpec("gaussian", k=k, seed_stream=1), 1500)
        assert np.all(np.abs(est.eigenvalues - k / n) <= 0.04)
        assert np.max(np.abs(est.mean_P - est.mean_P.T)) == 0.0

    def test_full_rank_sketch_gives_identity(self):
        A = np.random.default_rng(0).standard_normal((30, 8))
        est = expected_projection(A, SketchSpec("gaussian", k=8, seed_stream=2), 5)
        np.testing.assert_allclose(est.mean_P, np.eye(8), atol=1e-8)
        assert worst_case_rate(est) == pytest.approx(1.0, abs=1e-8)

    def test_sampled_projections_are_projections(self):
        A = gen_gaussian_unit_rows(40, 10, seed=3)
        spec = SketchSpec("rademacher", k=4, seed_stream=4)
        for t in range(5):
            P = projection_matrix(draw_sketch(spec, 40, trial=t), A)
            assert np.linalg.norm(P @ P - P) <= 1e-8
            assert np.linalg.norm(P - P.T) <= 1e-8
            assert np.linalg.matrix_rank(P, tol=1e-8) == 4

    def test_eigenvalues_within_unit_interval(self):
        A = gen_gaussian_unit_rows(50, 12, seed=5)
        est = expected_projection(A, SketchSpec("gaussian", k=5, seed_stream=6), 50)
        assert np.all(est.eigenvalues >= -1e-8)
        assert np.all(est.eigenvalues <= 1.0 + 1e-8)
        assert np.all(np.diff(est.eigenvalues) <= 1e-12)  # non-increasing

    def test_eigenvalues_nondecreasing_in_k(self):
        A = gen_gaussian_unit_rows(60, 10, seed=7)
        trials = 600
        est5 = expected_projection(A, SketchSpec("gaussian", k=5, seed_stream=8), trials)
        est8 = expected_projection(A, SketchSpec("gaussian", k=8, seed_stream=9), trials)
        tol = 3.0 / math.sqrt(trials)
        assert np.all(est8.eigenvalues >= est5.eigenvalues - tol)


class TestGammaImplicit:
    def test_flat_spectrum_closed_form(self):
        # f(g) = n g / (g + 1) = k  =>  g = k / (n - k)
        n, k = 50, 10
        assert gamma_implicit(np.ones(n), k) == pytest.approx(k / (n - k), rel=1e-10)

    def test_root_contract(self):
        rng = np.random.default_rng(10)
        sigma_sq = np.sort(rng.uniform(0.1, 5.0, size=30))[::-1]
        for k in (1, 7, 20):
            g = gamma_implicit(sigma_sq, k)
            f = float(np.sum(g * sigma_sq / (g * sigma_sq + 1.0)))
            assert f == pytest.approx(k, abs=1e-9)

    def test_k_at_rank_rejected(self):
        with pytest.raises(ValueError):
            gamma_implicit(np.ones(5), 5)

    def test_matches_monte_carlo_gamma(self):
        # |gamma_implicit - k/Err_MC| / gamma_implicit <= 0.1 + 3 rel stderr
        # on a matrix with stable rank >= 4k
        A = gen_spectral_matrix(SpectralProfile.flat(30), 300, seed=11)
        sigma_sq = np.linalg.svd(A, compute_uv=False) ** 2
        k = 5
        g_bar = gamma_implicit(sigma_sq, k)
        est = err_km1(A, k, 12, 50)
        g_mc = k / est.mean
        rel_stderr = est.stderr / est.mean
        assert abs(g_bar - g_mc) / g_bar <= 0.1 + 3 * rel_stderr


class TestSurrogateEigenvalues:
    def test_gamma_limits(self):
        sigma_sq = np.array([2.0, 1.0, 0.5])
        assert np.all(surrogate_eigenvalues(sigma_sq, 1e12) > 1.0 - 1e-10)
        small = surrogate_eigenvalues(sigma_sq, 1e-9)
        np.testing.assert_allclose(small, 1e-9 * sigma_sq, rtol=1e-8)


class TestSurrogateRate:
    def test_identity_implicit_gamma_gives_k_over_n(self):
        # g = k/(n-k):  (k/(n-k)) / (k/(n-k) + 1) = k/n, with Err = k/g
        n, k = 50, 10
        g = gamma_implicit(np.ones(n), k)
        assert rate_bound_set(np.ones(n), k, k / g).surrogate == pytest.approx(k / n, rel=1e-9)

    def test_dominates_flattened_form(self):
        # x/(x+1) >= (1 - k/n) x  whenever  Err >= (n-k) sigma_min^2,
        # which always holds;  checked with Monte-Carlo Err
        A = gen_gaussian_unit_rows(100, 20, seed=14)
        sigma = np.linalg.svd(A, compute_uv=False)
        sig_min_sq = float(sigma[-1] ** 2)
        n = 20
        for k in (2, 5, 10):
            est = err_km1(A, k, 15, 30)
            lhs = rate_bound_set(sigma, k, est.mean).surrogate
            rhs = (1.0 - k / n) * k * sig_min_sq / est.mean
            assert lhs >= rhs - 1e-12


class TestGaussianRateBound:
    def test_epsilon_value_n1000_k50(self):
        # 4*50/1000 + 8*ln(3000)/1000, frozen from direct evaluation
        b = gaussian_rate_bound(1.0, 10.0, 50, 1000)
        assert b.epsilon == pytest.approx(0.2640509405412026, rel=1e-12)
        assert not b.vacuous
        assert b.epsilon_log10 < b.epsilon

    def test_recovers_single_row_rate_for_large_n(self):
        # k=1, Err = ||A||_F^2: bound -> sigma_min^2/||A||_F^2 as n grows
        n = 10**6
        sig_min_sq, fro_sq = 0.5, 400.0
        b = gaussian_rate_bound(sig_min_sq, fro_sq, 1, n)
        assert b.bound == pytest.approx(sig_min_sq / fro_sq, rel=1e-3)

    def test_vacuous_flag(self):
        b = gaussian_rate_bound(1.0, 1.0, 10, 20)  # eps = 2 + ...
        assert b.vacuous and b.bound <= 0.0

    @pytest.mark.parametrize("k", [0, True, 2.5])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            gaussian_rate_bound(1.0, 1.0, k, 5)

    @pytest.mark.parametrize("k,n,err", [(6, 5, 1.0), (2, 5, 0.0)], ids=["n_below_k", "err_zero"])
    def test_n_and_err_checks_stay(self, k, n, err):
        with pytest.raises(ValueError, match="need n >= k, err_km1 > 0"):
            gaussian_rate_bound(1.0, err, k, n)


class TestGaussianRateVariant:
    def test_frozen_arithmetic_n100_k50(self):
        # C = ((sqrt(50)+2)/(10-sqrt(50)-2))^2 = 95.3561709...
        C = ((math.sqrt(50) + 2.0) / (10.0 - math.sqrt(50) - 2.0)) ** 2
        assert C == pytest.approx(95.35617097786958, rel=1e-12)
        factor = 0.05 / (1.0 + C)
        assert factor == pytest.approx(5.18908124851533e-4, rel=1e-10)
        assert gaussian_rate_variant(1.0, 1.0, 50, 100) == pytest.approx(50 * factor)

    def test_constant_below_100_in_stated_range(self):
        for n in (100, 200, 500, 1000, 5000):
            for k in range(1, n // 2 + 1, max(1, n // 20)):
                C = ((math.sqrt(k) + 2.0) / (math.sqrt(n) - math.sqrt(k) - 2.0)) ** 2
                assert C <= 100.0, (n, k)

    def test_small_k_factor_approaches_5_percent(self):
        val = gaussian_rate_variant(1.0, 1.0, 1, 10**6)
        assert val == pytest.approx(0.05, rel=1e-2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gaussian_rate_variant(1.0, 1.0, 80, 100)  # (sqrt(100)-2)^2 = 64


class TestDecayRateBound:
    def test_general_k1_is_kaczmarz_rate(self):
        sigma = np.linspace(2.0, 0.5, 30)
        expected = sigma[-1] ** 2 / np.sum(sigma**2)
        assert decay_rate_bound("general", 1, sigma) == pytest.approx(expected)

    def test_polynomial_beta_ratio(self):
        sigma = np.linspace(2.0, 0.5, 40)
        b1 = decay_rate_bound("polynomial", 10, sigma, beta=1.0 + 1e-12)
        b2 = decay_rate_bound("polynomial", 10, sigma, beta=2.0)
        assert b2 / b1 == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("alpha,k", [(1.5, 4), (4.0, 10)], ids=["value", "clamped"])
    def test_exponential_value(self, alpha, k):
        sigma = np.linspace(3.0, 0.5, 20)
        expected = min(alpha**k * sigma[-1] ** 2 / np.sum(sigma**2), 1.0)
        assert decay_rate_bound("exponential", k, sigma, alpha=alpha) == pytest.approx(expected)

    @pytest.mark.parametrize("alpha,k,message", [
        (1.0, 4, "alpha > 1"), (0.5, 4, "alpha > 1"), (None, 4, "alpha > 1"),
        (1.5, 11, "k <= n/2")], ids=["alpha_one", "alpha_below_one", "alpha_missing", "k_above_half"])
    def test_exponential_range_checks(self, alpha, k, message):
        with pytest.raises(ValueError, match=message):
            decay_rate_bound("exponential", k, np.linspace(3.0, 0.5, 20), alpha=alpha)

    def test_flat_tail_clamp(self):
        sigma = np.ones(20)
        assert decay_rate_bound("flat_tail", 20, sigma, r=10) == pytest.approx(1.0)

    def test_range_checks(self):
        sigma = np.ones(20)
        with pytest.raises(ValueError):
            decay_rate_bound("polynomial", 11, sigma, beta=2.0)  # k > n/2
        with pytest.raises(ValueError):
            decay_rate_bound("flat_tail", 5, sigma, r=10)  # k < 2r
        with pytest.raises(ValueError):
            decay_rate_bound("mystery", 1, sigma)

    @pytest.mark.parametrize("k", [0, True, 2.5])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            decay_rate_bound("general", k, np.ones(5))


class TestRateBoundSet:
    def test_ordering_and_contents(self):
        A = gen_gaussian_unit_rows(400, 20, seed=40)
        sigma = np.linalg.svd(A, compute_uv=False)
        est = err_km1(A, 5, 41, 30)
        bounds = rate_bound_set(sigma, 5, est.mean)
        # Err(A, k-1) <= ||A||_F^2, so the simple bound is the weakest form
        assert bounds.simple <= bounds.gaussian.bound / (1.0 - bounds.gaussian.epsilon)
        assert 0.0 < bounds.surrogate < 1.0


class TestSurrogateVsEmpirical:
    def test_identity_tight(self):
        # the identity spectrum is fully degenerate, so lambda_min of the MC
        # mean carries an O(sqrt(n/trials)) edge bias; 2e4 trials push it
        # below the 5% gap target
        trials = 20000
        comp = surrogate_vs_empirical(np.eye(100), SketchSpec("gaussian", k=10, seed_stream=16),
                                      trials=trials)
        assert comp.rel_gap <= 0.05
        # both quantities are lower bounds for the true rate; up to MC noise
        # the surrogate cannot exceed s_min by much
        assert comp.surrogate <= comp.s_min + 3.0 / math.sqrt(trials)

    def test_sandwich_rademacher_flat_spectrum(self):
        # light version of the two-sided surrogate comparison at module scale
        A = gen_spectral_matrix(SpectralProfile.flat(30), 300, seed=17)
        svals = np.linalg.svd(A, compute_uv=False)
        r = float(np.sum(svals**2) / svals[0] ** 2)
        eps_hat = 5.0 / math.sqrt(r)
        k = 5
        est = expected_projection(A, SketchSpec("rademacher", k=k, seed_stream=18), 500)
        err = err_km1(A, k, 19, 50)
        lam_bar = np.sort(surrogate_eigenvalues(svals**2, k / err.mean))[::-1]
        ratio = est.eigenvalues / lam_bar
        assert np.all(ratio >= 1.0 - eps_hat)
        assert np.all(ratio <= 1.0 + eps_hat)
