import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsolve.matgen import gen_gaussian_unit_rows
from sketchsolve.sketch import (
    SketchSpec,
    SparseSketch,
    apply_sketch,
    apply_sketch_t,
    build_less_distribution,
    densify,
    draw_sketch,
    leverage_scores,
)


def _projection(S, A):
    """Independent oracle: P = (SA)^+ (SA) via explicit pseudoinverse."""
    SA = densify(S) @ A
    return np.linalg.pinv(SA) @ SA


class TestLeverageScores:
    def test_orthogonal_matrix_unit_scores(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
        np.testing.assert_allclose(leverage_scores(Q), np.ones(8), atol=1e-10)

    def test_sum_equals_rank(self):
        A = gen_gaussian_unit_rows(100, 12, seed=1)
        assert leverage_scores(A).sum() == pytest.approx(12.0, abs=1e-8)

    def test_hand_computed_example(self):
        # a_i^T (A^T A)^{-1} a_i with A^T A = diag(4, 2)
        A = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = np.array([row @ np.linalg.inv(A.T @ A) @ row for row in A])
        np.testing.assert_allclose(expected, [1.0, 0.5, 0.5])
        np.testing.assert_allclose(leverage_scores(A), expected, atol=1e-12)

    def test_rank_deficient_rejected(self):
        A = np.ones((5, 3))
        with pytest.raises(ValueError, match="rank-deficient"):
            leverage_scores(A)


class TestLessDistribution:
    def test_hand_computed_probabilities(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        p = build_less_distribution(A)
        np.testing.assert_allclose(p, [0.5, 0.25, 0.25], atol=1e-12)

    def test_orthogonal_uniform(self):
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))
        p = build_less_distribution(Q)
        np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-12)

    def test_normalization(self):
        A = gen_gaussian_unit_rows(50, 5, seed=3)
        assert build_less_distribution(A).sum() == pytest.approx(1.0, abs=1e-12)


class TestDrawSketch:
    def test_gaussian_entry_moments(self):
        spec = SketchSpec("gaussian", k=10, seed_stream=7)
        entries = np.concatenate(
            [draw_sketch(spec, 50, trial=t).ravel() for t in range(200)]
        )  # 10^5 entries
        n = entries.size
        assert abs(entries.mean()) <= 3.0 / np.sqrt(n)
        assert abs(entries.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_rademacher_entries(self):
        S = draw_sketch(SketchSpec("rademacher", k=6, seed_stream=1), 40, trial=0)
        assert set(np.unique(S)) == {-1.0, 1.0}

    def test_determinism(self):
        spec = SketchSpec("less_uniform", k=4, s=6, seed_stream=5)
        S1 = draw_sketch(spec, 30, trial=3)
        S2 = draw_sketch(spec, 30, trial=3)
        assert np.array_equal(densify(S1), densify(S2))
        S3 = draw_sketch(spec, 30, trial=4)
        assert not np.array_equal(densify(S1), densify(S3))

    def test_tuple_trials_are_distinct_streams(self):
        spec = SketchSpec("gaussian", k=2, seed_stream=5)
        S_a = draw_sketch(spec, 10, trial=(1, 2))
        S_b = draw_sketch(spec, 10, trial=(2, 1))
        assert not np.array_equal(S_a, S_b)

    def test_row_sampling_degenerate_distribution(self):
        p = np.zeros(20)
        p[0] = 1.0
        spec = SketchSpec("row_sampling", k=8, sampling=p, seed_stream=2)
        S = draw_sketch(spec, 20, trial=0)
        assert np.array_equal(S.indices, np.zeros((8, 1), dtype=np.int64))

    def test_less_requires_sampling(self):
        spec = SketchSpec("less", k=3, s=4, seed_stream=0)
        with pytest.raises(ValueError, match="sampling"):
            draw_sketch(spec, 10)

    def test_less_cdf_built_once_per_spec(self, monkeypatch):
        A = gen_gaussian_unit_rows(60, 8, seed=4)
        spec = SketchSpec("less", k=5, s=7, sampling=build_less_distribution(A),
                          seed_stream=9)
        calls, cumsum = [], np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **kw: calls.append(a) or cumsum(*a, **kw))
        for t in range(50):
            draw_sketch(spec, 60, t)
        assert len(calls) == 1

    def test_sparse_row_support(self):
        A = gen_gaussian_unit_rows(60, 8, seed=4)
        p = build_less_distribution(A)
        spec = SketchSpec("less", k=5, s=7, sampling=p, seed_stream=9)
        S = draw_sketch(spec, 60, trial=1)
        assert S.s_drawn == 7
        assert S.indices.shape == S.values.shape == (5, 7) and S.nnz == 35
        assert np.all((S.indices >= 0) & (S.indices < 60))
        assert np.all(p[S.indices] > 0)

    @staticmethod
    def _merged_csr(S):
        """Merge duplicate indices per row into CSR ``(indptr, indices,
        values)``, summing in draw order (stable sort, then reduceat)."""
        k, m = S.shape
        keys = np.repeat(np.arange(k), S.s_drawn) * m + S.indices.ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        start = np.flatnonzero(np.diff(keys, prepend=-1))
        uniq = keys[start]
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // m, minlength=k), out=indptr[1:])
        return indptr, uniq % m, np.add.reduceat(S.values.ravel()[order], start)

    def test_draw_pinned(self):
        # sha256 of the merged (indptr, indices, values) bytes: the drawn
        # terms are a fixed function of (spec, m, trial)
        cases = [
            (SketchSpec("less_uniform", k=20, s=32, seed_stream=7), 1000, (1, 2),
             "e064f7383c6f259262c67cf7241e7eddc3c44adbecd56d6052edc3bebfa80168"),
            (SketchSpec("less", k=4, s=32, sampling=np.array([0.61] + [0.01] * 39),
                        seed_stream=11), 40, 0,
             "6c2ca15567f9ec174f823737d72a7501660f1ba6504fdbf5c1425bfce7243a76"),
            (SketchSpec("row_sampling", k=8, sampling=np.arange(1.0, 21.0) / 210.0,
                        seed_stream=5), 20, 1,
             "237bd1936508b44482799e7e11a3138b91634347734227b62cf3e875a741d8d3"),
            # uniform row sampling: every CLI row_sampling cell draws this way
            (SketchSpec("row_sampling", k=8, seed_stream=5), 20, 1,
             "23a47c2333b2fbaacec7674147658d1a4c1bb8a0e022137224a5a4204d21ca22"),
        ]
        for spec, m, trial, digest in cases:
            S = draw_sketch(spec, m, trial=trial)
            h = hashlib.sha256()
            for arr in self._merged_csr(S):
                h.update(arr.tobytes())
            assert h.hexdigest() == digest, spec.family

    @pytest.mark.parametrize(
        "family,s,scale_k",
        [("gaussian", None, False), ("rademacher", None, False),
         ("less_uniform", 8, True), ("less_uniform", 3, True),
         ("row_sampling", None, True)],
    )
    def test_isotropy(self, family, s, scale_k):
        # Monte-Carlo average of the row second moment; sparse families carry
        # the 1/sqrt(k) normalization so k * E[s s^T] = I, dense ones have
        # E[s s^T] = I directly.  The fixed 5/sqrt(rows) tolerance is only
        # statistically attainable down to moderate sparsity (per-entry
        # variance grows like 3m/s), so very sparse settings also get an
        # elementwise 4-sigma CLT bound.
        m, k, trials = 8, 2, 6000  # 12000 rows
        spec = SketchSpec(family, k=k, s=s, seed_stream=13)
        scale = float(k) if scale_k else 1.0
        acc = np.zeros((m, m))
        acc_sq = np.zeros((m, m))
        rows = 0
        for t in range(trials):
            S = densify(draw_sketch(spec, m, trial=t))
            for row in S:
                outer = scale * np.outer(row, row)
                acc += outer
                acc_sq += outer**2
                rows += 1
        mean = acc / rows
        entry_sd = np.sqrt(np.maximum(acc_sq / rows - mean**2, 0.0))
        tol = np.maximum(5.0 / np.sqrt(rows), 4.0 * entry_sd / np.sqrt(rows))
        assert np.all(np.abs(mean - np.eye(m)) <= tol)
        if family in ("gaussian", "rademacher") or s == m:
            assert np.max(np.abs(mean - np.eye(m))) <= 5.0 / np.sqrt(rows)


_DUP_HEAVY = np.array([0.97, 0.01, 0.01, 0.01])
# (spec, m); the *-dup cases concentrate p on one index, so rows repeat an
# index (less) or many rows share one column (row_sampling)
_SPARSE_CASES = [
    (SketchSpec("less", k=6, s=5, sampling=np.arange(1.0, 41.0) / 820.0, seed_stream=3), 40),
    (SketchSpec("less_uniform", k=6, s=5, seed_stream=3), 40),
    (SketchSpec("row_sampling", k=6, seed_stream=3), 40),
    (SketchSpec("less", k=4, s=4, sampling=_DUP_HEAVY, seed_stream=3), 4),
    (SketchSpec("row_sampling", k=4, sampling=_DUP_HEAVY, seed_stream=3), 4),
]
_SPARSE_IDS = ["less", "less_uniform", "row_sampling", "less-dup", "row_sampling-dup"]


class TestApplySketch:
    def test_row_selection(self):
        A = np.arange(20.0).reshape(5, 4)
        S = SparseSketch(indices=np.array([[1], [3]]), values=np.array([[1.0], [1.0]]),
                         m=5)
        np.testing.assert_allclose(apply_sketch(S, A), A[[1, 3]])

    def test_dense_identity(self):
        S = np.random.default_rng(0).standard_normal((3, 6))
        np.testing.assert_allclose(apply_sketch(S, np.eye(6)), S)

    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("spec,m", _SPARSE_CASES, ids=_SPARSE_IDS)
    def test_sparse_matches_densified_oracle(self, spec, m, ndim):
        S = draw_sketch(spec, m, trial=2)
        A = np.random.default_rng(1).standard_normal((m, 9)[:ndim])
        np.testing.assert_allclose(apply_sketch(S, A), densify(S) @ A, atol=1e-12)

    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    @pytest.mark.parametrize("spec,m", _SPARSE_CASES, ids=_SPARSE_IDS)
    def test_transpose_apply_matches_dense(self, spec, m, ndim):
        S = draw_sketch(spec, m, trial=2)
        Y = np.random.default_rng(2).standard_normal((spec.k, 3)[:ndim])
        np.testing.assert_allclose(apply_sketch_t(S, Y), densify(S).T @ Y, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_sketch(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_op_counter_touches_only_stored_entries(self):
        # rows of A that no stored entry references are never read: NaN
        # there cannot leak into S A, for a vector or a matrix A
        spec = SketchSpec("less_uniform", k=4, s=3, seed_stream=1)
        S = draw_sketch(spec, 100, trial=0)
        assert S.nnz == 4 * 3 < 4 * 100
        for ndim in (1, 2):
            A = np.full((100, 2)[:ndim], np.nan)
            A[S.indices] = 1.0 + np.arange(S.nnz * A[0:1].size).reshape(
                S.indices.shape + A.shape[1:])
            np.testing.assert_allclose(apply_sketch(S, A),
                                       densify(S) @ np.nan_to_num(A), atol=1e-12)

    @given(c=st.floats(0.1, 10.0), trial=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_scaling_invariance_of_projection(self, c, trial):
        A = gen_gaussian_unit_rows(30, 6, seed=8)
        S = densify(draw_sketch(SketchSpec("gaussian", k=3, seed_stream=2), 30, trial=trial))
        P1 = _projection(S, A)
        P2 = _projection(c * S, A)
        assert np.max(np.abs(P1 - P2)) <= 1e-10


class TestSpecValidation:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            SketchSpec("gaussian", k=0)
        with pytest.raises(ValueError):
            SketchSpec("gaussian", k=15).validate(10)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SketchSpec("countsketch", k=2)

    def test_sampling_must_normalize(self):
        spec = SketchSpec("row_sampling", k=2, sampling=np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="sum to 1"):
            spec.validate(2)

    @pytest.mark.parametrize("field, value", [
        ("s", 2.5),  # int(2.5) drew 2 terms per row
        ("s", True),  # drew 1
        ("s", np.float64(3.0)),
        ("k", 2.5),
        ("k", np.float64(3.0)),
        ("k", False),
    ])
    def test_non_integer_k_or_s_rejected(self, field, value):
        sizes = {"k": 3, "s": 2, field: value}
        with pytest.raises(ValueError, match=f"sketch {field} must be an integer"):
            SketchSpec("less_uniform", **sizes)

    def test_numpy_integer_sizes_accepted(self):
        spec = SketchSpec("less_uniform", k=np.int64(3), s=np.int32(2), seed_stream=1)
        S = draw_sketch(spec, 10)
        assert S.indices.shape == (3, 2)
        np.testing.assert_array_equal(
            S.values, draw_sketch(SketchSpec("less_uniform", k=3, s=2, seed_stream=1), 10).values)
