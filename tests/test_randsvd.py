import numpy as np
import pytest

from sketchsolve import randsvd
from sketchsolve.matgen import SpectralProfile, gen_gaussian_unit_rows, gen_spectral_matrix
from sketchsolve.randsvd import (
    best_rank_error,
    err_km1,
    err_monte_carlo,
    err_upper_bound,
    err_upper_bound_min_p,
    rand_svd,
    residual_error,
)
from sketchsolve.sketch import SketchSpec, densify, draw_sketch


def _residual_oracle(A, S):
    """Brute-force ||A (I - (SA)^+ SA)||_F^2 via explicit pseudoinverse."""
    SA = densify(S) @ A
    P = np.linalg.pinv(SA) @ SA
    R = A @ (np.eye(A.shape[1]) - P)
    return float(np.sum(R * R))


class TestRandSvd:
    def test_full_rank_capture(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 10))  # rank 4
        fac = rand_svd(A, SketchSpec("gaussian", k=6, seed_stream=1))
        assert np.linalg.norm(A - fac.reconstruct()) <= 1e-8 * np.linalg.norm(A)

    def test_rank_one_top_singular_value(self):
        rng = np.random.default_rng(1)
        A = np.outer(rng.standard_normal(20), rng.standard_normal(7))
        fac = rand_svd(A, SketchSpec("gaussian", k=1, seed_stream=2))
        top = np.linalg.svd(A, compute_uv=False)[0]
        assert fac.sigma[0] == pytest.approx(top, rel=1e-8)

    def test_orthonormal_factors(self):
        A = gen_gaussian_unit_rows(40, 12, seed=3)
        fac = rand_svd(A, SketchSpec("gaussian", k=5, seed_stream=4))
        np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(fac.rank), atol=1e-10)
        np.testing.assert_allclose(fac.V.T @ fac.V, np.eye(fac.rank), atol=1e-10)
        assert np.all(np.diff(fac.sigma) <= 0)

    def test_reconstruction_error_matches_projection_residual(self):
        A = np.random.default_rng(5).standard_normal((20, 8))
        spec = SketchSpec("gaussian", k=3, seed_stream=6)
        fac = rand_svd(A, spec, trial=0)
        S = draw_sketch(spec, 20, trial=0)
        recon_err = np.linalg.norm(A - fac.reconstruct()) ** 2
        assert recon_err == pytest.approx(_residual_oracle(A, S), rel=1e-8)
        assert recon_err == pytest.approx(residual_error(A, S), rel=1e-8)

    def test_singular_value_interlacing(self):
        A = gen_spectral_matrix(SpectralProfile.polynomial(1.0, 15), 60, seed=7)
        fac = rand_svd(A, SketchSpec("gaussian", k=8, seed_stream=8))
        full = np.linalg.svd(A, compute_uv=False)
        assert np.all(fac.sigma <= full[: fac.rank] + 1e-8)

    def test_degenerate_sketch_rejected(self):
        # a zero matrix forces S A = 0 whatever the sketch draws
        with pytest.raises(ValueError, match="degenerate"):
            rand_svd(np.zeros((5, 3)), SketchSpec("gaussian", k=2, seed_stream=9))


class TestResidualError:
    def test_full_rank_sketch_zero_residual(self):
        A = np.random.default_rng(0).standard_normal((12, 5))
        S = np.random.default_rng(1).standard_normal((5, 12))
        assert residual_error(A, S) <= 1e-10 * np.sum(A * A)

    def test_zero_sketch_full_residual(self):
        A = np.random.default_rng(2).standard_normal((9, 4))
        assert residual_error(A, np.zeros((3, 9))) == pytest.approx(float(np.sum(A * A)))

    def test_identity_single_row(self):
        assert residual_error(np.eye(3), np.array([[1.0, 0.0, 0.0]])) == pytest.approx(2.0)

    def test_bounds_and_trace_identity(self):
        A = np.random.default_rng(3).standard_normal((25, 6))
        fro_sq = float(np.sum(A * A))
        for t in range(5):
            S = draw_sketch(SketchSpec("gaussian", k=3, seed_stream=4), 25, trial=t)
            r = residual_error(A, S)
            assert 0.0 <= r <= fro_sq
            SA = S @ A
            P = np.linalg.pinv(SA) @ SA
            assert r == pytest.approx(fro_sq - np.trace(A.T @ A @ P), rel=1e-8)


class TestErrMonteCarlo:
    def test_identity_mean_n_minus_k(self):
        n, k = 40, 7
        est = err_monte_carlo(np.eye(n), SketchSpec("gaussian", k=k, seed_stream=5), 30)
        assert abs(est.mean - (n - k)) <= 3 * est.stderr + 1e-9

    def test_monotone_in_k(self):
        A = gen_gaussian_unit_rows(80, 12, seed=6)
        prev = err_monte_carlo(A, SketchSpec("gaussian", k=3, seed_stream=7), 40)
        for k in (4, 6, 9):
            cur = err_monte_carlo(A, SketchSpec("gaussian", k=k, seed_stream=7), 40)
            assert cur.mean <= prev.mean + 3 * (cur.stderr + prev.stderr)
            prev = cur

    def test_best_rank_floor(self):
        A = gen_spectral_matrix(SpectralProfile.polynomial(1.5, 12), 50, seed=8)
        sigma = np.linalg.svd(A, compute_uv=False)
        est = err_monte_carlo(A, SketchSpec("gaussian", k=4, seed_stream=9), 40)
        assert best_rank_error(sigma, 4) <= est.mean + 3 * est.stderr

    def test_trials_lower_bound(self):
        for trials in (1, True, 3.0):
            with pytest.raises(ValueError, match="trials must be an integer >= 2"):
                err_monte_carlo(np.eye(4), SketchSpec("gaussian", k=2), trials=trials)


class TestErrKm1:
    def test_k_one_exact(self, monkeypatch):
        # Err(A, 0) = ||A||_F^2: the empty projection needs no sketch
        A = np.random.default_rng(4).standard_normal((10, 5))
        monkeypatch.setattr(randsvd, "err_monte_carlo", None)
        est = err_km1(A, 1, seed_stream=3, trials=10)
        assert est.mean == float(np.sum(A * A))
        assert est.stderr == 0.0 and est.trials == 0

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_explicit_gaussian_spec(self, k):
        A = gen_spectral_matrix(SpectralProfile.polynomial(1.5, 12), 50, seed=8)
        ref = err_monte_carlo(A, SketchSpec("gaussian", k=k - 1, seed_stream=23), 20)
        assert err_km1(A, k, 23, 20) == ref
        assert err_km1(A, k, 23, 20, R=np.linalg.qr(A, mode="r")) == ref

    @pytest.mark.parametrize("k", [0, -1, True, 2.5])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            err_km1(np.eye(4), k, 0, 10)


class TestErrUpperBound:
    def test_flat_spectrum_arithmetic(self):
        # (k-1)/(p-1) * sum_{i>=k-p} sigma_i^2 = (9/7) * 99 for unit spectrum
        sigma = np.ones(100)
        expected = 9.0 / 7.0 * 99.0
        assert err_upper_bound(sigma, 10, 8) == pytest.approx(expected, rel=1e-12)

    def test_geometric_spectrum_oracle(self):
        # sigma_i^2 = 2^-i: direct finite summation oracle
        n, k, p = 60, 10, 2
        sigma_sq = 2.0 ** -np.arange(1, n + 1)
        sigma = np.sqrt(sigma_sq)
        oracle = (k - 1) / (p - 1) * float(np.sum(sigma_sq[k - p - 1:]))
        assert err_upper_bound(sigma, k, p) == pytest.approx(oracle, rel=1e-12)
        # at double precision the finite tail equals the infinite one: 9 * 2^-7
        assert oracle == pytest.approx(0.0703125, rel=1e-12)

    def test_p_range_enforced(self):
        sigma = np.ones(20)
        for bad_p in (1, 9, 15):
            with pytest.raises(ValueError):
                err_upper_bound(sigma, 10, bad_p)

    def test_min_over_p(self):
        sigma = np.linspace(3.0, 0.1, 30)
        bound, p = err_upper_bound_min_p(sigma, 12)
        assert 2 <= p <= 10
        assert bound == min(err_upper_bound(sigma, 12, q) for q in range(2, 11))

    def test_bound_dominates_monte_carlo(self):
        # the range-finder bound holds for Gaussian sketches on any matrix
        for name, A in [
            ("poly", gen_spectral_matrix(SpectralProfile.polynomial(1.0, 20), 80, seed=1)),
            ("gaus", gen_gaussian_unit_rows(80, 20, seed=2)),
        ]:
            sigma = np.linalg.svd(A, compute_uv=False)
            for k in (6, 10, 14):
                est = err_monte_carlo(A, SketchSpec("gaussian", k=k, seed_stream=3), 40)
                bound, _ = err_upper_bound_min_p(sigma, k)
                assert np.isfinite(bound) and bound > 0
                assert est.mean <= bound + 3 * est.stderr, (name, k)


class TestBestRankError:
    def test_edges(self):
        sigma = np.array([3.0, 2.0, 1.0])
        assert best_rank_error(sigma, 0) == pytest.approx(14.0)
        assert best_rank_error(sigma, 3) == 0.0
        assert best_rank_error(sigma, 1) == pytest.approx(5.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            best_rank_error(np.ones(3), 4)
