import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsolve import matgen
from sketchsolve.matgen import (
    LibsvmFormatError,
    LinearSystem,
    SpectralProfile,
    gen_gaussian_unit_rows,
    gen_spectral_matrix,
    make_system,
    parse_libsvm,
    save_matrix_csv,
    _cholesky_qr2_frame,
    _householder_frame,
)
from sketchsolve.rng import stream


class TestSpectralProfile:
    def test_linear_slope_001_sigma_min(self):
        # 6.8 - 0.01 * 150
        prof = SpectralProfile.linear(0.01, 150)
        assert prof.values()[-1] == pytest.approx(5.3, abs=1e-12)

    def test_linear_slope_035_sigma_min(self):
        prof = SpectralProfile.linear(0.035, 150)
        assert prof.values()[-1] == pytest.approx(6.8 - 0.035 * 150, abs=1e-12)

    def test_polynomial_second_value(self):
        # 6.8 * 2**-1
        prof = SpectralProfile.polynomial(1.0, 10)
        assert prof.values()[1] == pytest.approx(3.4, abs=1e-12)

    def test_exponential_top_value_and_ratio(self):
        prof = SpectralProfile.exponential(2.0, 6)
        vals = prof.values()
        assert vals[0] == pytest.approx(6.8)
        np.testing.assert_allclose(vals[:-1] ** 2 / vals[1:] ** 2, 2.0)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            SpectralProfile.linear(0.1, 100)  # sigma_100 = -3.2
        with pytest.raises(ValueError):
            SpectralProfile.explicit([1.0, 2.0, 0.5])  # increasing

    @given(
        slope=st.floats(1e-4, 0.04),
        n=st.integers(2, 150),
        kind=st.sampled_from(["linear", "polynomial"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_profiles_positive_nonincreasing(self, slope, n, kind):
        if kind == "linear":
            prof = SpectralProfile.linear(slope, n)
        else:
            prof = SpectralProfile.polynomial(1.0 + 10 * slope, n)
        vals = prof.values()
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)


class TestStepProfile:
    def test_breakpoint_values(self):
        head = SpectralProfile.linear(0.01, 150)
        tail = SpectralProfile.polynomial(1.0, 150)
        prof = SpectralProfile.step(20, head, tail)
        vals = prof.values()
        assert vals[19] == pytest.approx(6.6, abs=1e-12)
        assert vals[20] == pytest.approx(6.8 / 21, abs=1e-12)

    def test_break_at_n_equals_head(self):
        head = SpectralProfile.linear(0.02, 40)
        tail = SpectralProfile.polynomial(1.5, 40)
        prof = SpectralProfile.step(40, head, tail)
        np.testing.assert_allclose(prof.values(), head.values())

    def test_break_at_one_same_profiles_equals_tail(self):
        tail = SpectralProfile.polynomial(1.0, 30)
        prof = SpectralProfile.step(1, tail, tail)
        np.testing.assert_allclose(prof.values(), tail.values())

    def test_non_monotone_splice_resorted_with_warning(self):
        # steep head drops below the flat-ish tail at the breakpoint
        head = SpectralProfile.polynomial(2.0, 30)
        tail = SpectralProfile.linear(0.01, 30)
        with pytest.warns(UserWarning):
            prof = SpectralProfile.step(10, head, tail)
        assert np.all(np.diff(prof.values()) <= 0)


class TestGenSpectralMatrix:
    def test_singular_values_match_profile(self):
        prof = SpectralProfile.linear(0.025, 60)
        A = gen_spectral_matrix(prof, 200, seed=5)
        s = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(s, prof.values(), rtol=1e-8)

    def test_unit_spectrum_gives_orthonormal_columns(self):
        prof = SpectralProfile.explicit(np.ones(50))
        A = gen_spectral_matrix(prof, 50, seed=9)
        np.testing.assert_allclose(A.T @ A, np.eye(50), atol=1e-8)

    def test_seed_reproducibility(self):
        prof = SpectralProfile.polynomial(1.0, 20)
        A1 = gen_spectral_matrix(prof, 80, seed=123)
        A2 = gen_spectral_matrix(prof, 80, seed=123)
        assert np.array_equal(A1, A2)
        A3 = gen_spectral_matrix(prof, 80, seed=124)
        assert not np.array_equal(A1, A3)

    def test_dimension_mismatch(self):
        prof = SpectralProfile.flat(10)
        with pytest.raises(ValueError):
            gen_spectral_matrix(prof, 5, seed=0)


class TestHaarFrames:
    """gen_spectral_matrix's m x n frame comes from CholeskyQR2, which must
    give the signed Householder Q it replaces."""

    @pytest.mark.parametrize("m,n", [(4096, 128), (1000, 50), (60, 15)])
    def test_cholesky_qr2_is_the_signed_householder_q(self, m, n):
        G = stream(m + n).standard_normal((m, n))
        Q = _cholesky_qr2_frame(G)
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= n * np.finfo(float).eps
        np.testing.assert_allclose(Q, _householder_frame(G), rtol=0.0, atol=1e-15)

    def test_rank_deficient_input_takes_householder(self, monkeypatch):
        G = stream(3).standard_normal((40, 6))
        G[:, 2] = 0.0  # G^T G is singular: its Cholesky factorization fails
        expected = _householder_frame(G)
        calls = []
        monkeypatch.setattr(matgen, "_householder_frame",
                            lambda G: calls.append(1) or expected)
        assert _cholesky_qr2_frame(G) is expected
        assert calls == [1]


class TestGaussianUnitRows:
    def test_row_norms_and_frobenius(self):
        A = gen_gaussian_unit_rows(500, 30, seed=2)
        np.testing.assert_allclose(np.linalg.norm(A, axis=1), 1.0, atol=1e-12)
        assert np.sum(A * A) == pytest.approx(500.0, abs=1e-9)

    def test_determinism(self):
        assert np.array_equal(
            gen_gaussian_unit_rows(40, 7, seed=11), gen_gaussian_unit_rows(40, 7, seed=11)
        )


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1 1:0.5 3:2.0\n")
        A, labels = parse_libsvm(f, n_features=3)
        np.testing.assert_allclose(A, [[0.5, 0.0, 2.0]])
        np.testing.assert_allclose(labels, [1.0])

    def test_label_only_line(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("-1\n1 2:3.5\n")
        A, labels = parse_libsvm(f)
        np.testing.assert_allclose(A, [[0.0, 0.0], [0.0, 3.5]])
        np.testing.assert_allclose(labels, [-1.0, 1.0])

    def test_non_increasing_index_rejected(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1 3:1 2:1\n")
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm(f)

    def test_malformed_token_reports_line(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("1 1:2.0\n1 1:x\n")
        with pytest.raises(LibsvmFormatError, match="line 2"):
            parse_libsvm(f)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("# header\n\n1 1:7 # trailing\n")
        A, labels = parse_libsvm(f)
        np.testing.assert_allclose(A, [[7.0]])

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_precision(self, values):
        import tempfile
        from pathlib import Path

        line = "1 " + " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(values))
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "data.txt"
            f.write_text(line + "\n")
            A, _ = parse_libsvm(f)
        np.testing.assert_array_equal(A[0], np.asarray(values))


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        A = np.random.default_rng(3).standard_normal((7, 4)) * 1e3
        path = tmp_path / "mat.csv"
        save_matrix_csv(path, A)
        assert path.read_text().splitlines()[0] == "7,4"
        B = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(A, B)  # repr round-trips float64 exactly


class TestMakeSystem:
    def test_identity_system(self):
        system = make_system(np.eye(12), seed=4)
        np.testing.assert_allclose(system.b, system.x_star)
        assert system.rank == system.n

    def test_full_rank_residual(self):
        A = gen_gaussian_unit_rows(60, 10, seed=8)
        system = make_system(A, seed=9)
        assert np.linalg.norm(A @ system.x_star - system.b) <= 1e-10 * np.linalg.norm(system.b)

    def test_rank_one_solution_parallel_to_v(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(15), rng.standard_normal(6)
        system = make_system(np.outer(u, v), seed=2)
        assert system.rank < system.n
        # closed form: x* = v (v . x_seed) / ||v||^2, parallel to v
        cosine = abs(system.x_star @ v) / (np.linalg.norm(system.x_star) * np.linalg.norm(v))
        assert cosine == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_solution_orthogonal_to_nullspace(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((20, 3))
        C = rng.standard_normal((3, 8))
        system = make_system(B @ C, seed=7)
        _, _, Vt = np.linalg.svd(B @ C)
        null_basis = Vt[3:]
        assert np.max(np.abs(null_basis @ system.x_star)) <= 1e-10

    def test_metric_must_be_spd(self):
        non_symmetric = np.eye(3)
        non_symmetric[0, 2] = 0.5
        for metric, message in [(np.diag([1.0, -1.0, 1.0]), "not positive definite"),
                                (np.diag([1.0, 0.0, 1.0]), "not positive definite"),
                                (non_symmetric, "must be symmetric"),
                                (np.eye(2), r"must have shape \(3, 3\), got \(2, 2\)"),
                                (np.eye(4), r"must have shape \(3, 3\), got \(4, 4\)")]:
            with pytest.raises(ValueError, match=message):
                make_system(np.eye(3), seed=0, metric=metric)
        system = make_system(np.eye(3), seed=0, metric=np.diag([4.0, 1.0, 2.0]))
        assert system.metric_norm(np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)

    @pytest.mark.parametrize("metric,message", [
        (-np.eye(5), "not positive definite"),
        (np.eye(6), r"must have shape \(5, 5\), got \(6, 6\)")], ids=["negative", "wrong_size"])
    def test_hand_built_system_checks_metric(self, metric, message):
        A = gen_gaussian_unit_rows(30, 5, seed=3)
        x = np.ones(5)
        with pytest.raises(ValueError, match=message):
            LinearSystem(A, A @ x, x, metric=metric)

    def test_one_buffer_holds_a_and_b(self):
        system = make_system(gen_gaussian_unit_rows(30, 5, seed=3), seed=4)
        assert system._augmented.shape == (30, 6)
        for view in (system.A, system.b):
            assert np.shares_memory(view, system._augmented)
        np.testing.assert_array_equal(system._augmented[:, :5], system.A)
        np.testing.assert_array_equal(system._augmented[:, 5], system.b)

    def test_hand_built_system_stacks_a_and_b(self):
        A = gen_gaussian_unit_rows(30, 5, seed=3)
        b = A @ np.ones(5)
        system = LinearSystem(A=A, b=b, x_star=np.ones(5))
        np.testing.assert_array_equal(system._augmented, np.column_stack([A, b]))

    def test_non_finite_rejected(self):
        A = np.eye(4)
        A[2, 2] = np.inf
        with pytest.raises(ValueError):
            make_system(A, seed=0)
