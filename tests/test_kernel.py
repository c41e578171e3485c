"""The blocked trial kernel behind ``expected_projection`` and ``err_monte_carlo``.

Both estimators take trials in blocks of at most ``sketch.TRIAL_BLOCK``
through ``sketched_bases``: one stacked Householder QR per block, whose basis
a trial keeps only when a guard certifies full rank under the
``orth_rowspace`` rule; the other trials take a stacked SVD with that rule's
per-trial cutoff.  The oracle is the per-trial loop the kernel replaced:
``projection_matrix`` and ``residual_error`` on the trial's own sketch (for
Gaussian specs the dense ``G Q^T`` that ``sketch_times`` draws through).
Only summation orders differ, so the tolerance is 1e-12 relative.

The guard tests compare each trial's rank and projector with
``orth_rowspace`` of the trial's ``S A``, count the trials that reach the SVD,
and cover spectra at the cutoff, all-zero sketches, mixed blocks and k >= n.
"""

from dataclasses import replace

import numpy as np
import pytest

from sketchsolve import sketch
from sketchsolve.linalg import orth_rowspace, symmetrize
from sketchsolve.matgen import SpectralProfile, gen_gaussian_unit_rows, gen_spectral_matrix
from sketchsolve.randsvd import err_monte_carlo, residual_error
from sketchsolve.rng import stream
from sketchsolve.sketch import (
    SketchSpec,
    apply_sketch,
    build_less_distribution,
    draw_sketch,
    row_factor,
    sketch_times,
    sketched_bases,
)
from sketchsolve.spectral import expected_projection, projection_matrix

TOL = 1e-12
TRIAL_COUNTS = (15, 16, 17, 33)  # one short block, one full, one over, three blocks


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert np.max(np.abs(a - b)) <= TOL * max(1.0, float(np.max(np.abs(b))))


def _matrix(m=60, n=6, seed=3):
    return gen_gaussian_unit_rows(m, n, seed=seed) * np.linspace(3.0, 0.5, n)


def _specs(A):
    m = A.shape[0]
    p = build_less_distribution(A)
    dup_heavy = np.full(m, 0.01 / (m - 2))
    dup_heavy[:2] = [0.6, 0.39]
    dup_heavy /= dup_heavy.sum()
    return {
        "gaussian": SketchSpec("gaussian", k=4, seed_stream=10),
        "rademacher": SketchSpec("rademacher", k=4, seed_stream=11),
        "less": SketchSpec("less", k=4, s=5, sampling=p, seed_stream=12),
        "less_uniform": SketchSpec("less_uniform", k=4, s=3, seed_stream=13),
        "row_sampling": SketchSpec("row_sampling", k=4, sampling=p, seed_stream=14),
        # k = 5 rows from two likely indices: S A is rank-deficient in most trials
        "row_sampling-dup": SketchSpec("row_sampling", k=5, sampling=dup_heavy,
                                       seed_stream=15),
    }


_IDS = ["gaussian", "rademacher", "less", "less_uniform", "row_sampling", "row_sampling-dup"]


def _oracle_sketch(spec, A, t):
    """The k x m sketch whose product with A is ``sketch_times(spec, A, t)``."""
    if spec.family != "gaussian":
        return draw_sketch(spec, A.shape[0], t)
    Q, R = np.linalg.qr(A)
    assert np.array_equal(R, row_factor(A))
    return stream(spec.seed_stream, t).standard_normal((spec.k, R.shape[0])) @ Q.T


def _loop_mean_P(A, spec, trials):
    acc = np.zeros((A.shape[1], A.shape[1]))
    for t in range(trials):
        acc += projection_matrix(_oracle_sketch(spec, A, t), A)
    return symmetrize(acc / trials)


def _loop_err(A, spec, trials):
    samples = [residual_error(A, _oracle_sketch(spec, A, t)) for t in range(trials)]
    return np.mean(samples), np.std(samples, ddof=1) / np.sqrt(trials)


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("name", _IDS)
def test_expected_projection_matches_loop(name, trials):
    A = _matrix()
    spec = _specs(A)[name]
    est = expected_projection(A, spec, trials)
    assert est.trials == trials
    _close(est.mean_P, _loop_mean_P(A, spec, trials))


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("name", _IDS)
def test_err_monte_carlo_matches_loop(name, trials):
    A = _matrix()
    spec = _specs(A)[name]
    est = err_monte_carlo(A, spec, trials)
    mean, stderr = _loop_err(A, spec, trials)
    assert est.trials == trials
    _close(est.mean, mean)
    _close(est.stderr, stderr)


def test_duplicate_heavy_sketches_are_rank_deficient():
    # the per-trial cutoff must drop the spurious directions of a repeated row
    A = _matrix()
    spec = _specs(A)["row_sampling-dup"]
    ranks = [np.linalg.matrix_rank(apply_sketch(draw_sketch(spec, A.shape[0], t), A))
             for t in range(17)]
    assert min(ranks) < spec.k
    kept = [int(np.sum(np.any(V != 0.0, axis=-1))) for B in sketched_bases(spec, A, 17)
            for V in B]
    assert kept == ranks


def test_given_factor_is_used_as_is():
    A = _matrix()
    R = row_factor(A)
    spec = _specs(A)["gaussian"]
    assert np.array_equal(expected_projection(A, spec, 20, R).mean_P,
                          expected_projection(A, spec, 20).mean_P)
    spec3 = replace(spec, k=3)
    assert err_monte_carlo(A, spec3, 20, R) == err_monte_carlo(A, spec3, 20)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", _IDS)
def test_results_do_not_depend_on_blocking(monkeypatch, name, block):
    A = _matrix()
    spec = _specs(A)[name]
    P = expected_projection(A, spec, 33)
    err = err_monte_carlo(A, replace(spec, k=3), 33)
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", block)
    _close(expected_projection(A, spec, 33).mean_P, P.mean_P)
    blocked = err_monte_carlo(A, replace(spec, k=3), 33)
    _close(blocked.mean, err.mean)
    _close(blocked.stderr, err.stderr)


def test_block_shapes(monkeypatch):
    A = _matrix()
    spec = _specs(A)["less"]
    assert [B.shape for B in sketched_bases(spec, A, 33)] == [(16, 4, 6), (16, 4, 6),
                                                               (1, 4, 6)]
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", 7)
    assert [len(B) for B in sketched_bases(spec, A, 15)] == [7, 7, 1]


# --- the guarded QR block step -------------------------------------------------


def _decaying(lo, m=60, n=6, seed=3):
    """m x n matrix with singular values 10^0 .. 10^lo, geometrically spaced."""
    return gen_spectral_matrix(SpectralProfile.explicit(np.logspace(0, lo, n)), m, seed=seed)


def _count_svd_trials(monkeypatch):
    """Trials that reach a stacked ``np.linalg.svd`` (``orth_rowspace`` takes 2-D ones)."""
    seen = []
    svd = np.linalg.svd

    def counting(M, *args, **kwargs):
        if np.ndim(M) == 3:
            seen.append(len(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen


def _bases(spec, A, trials):
    return [V for B in sketched_bases(spec, A, trials) for V in B]


def _rank(V):
    return int(np.sum(np.any(V != 0.0, axis=-1)))


def _oracle_ranks(spec, A, trials):
    return [orth_rowspace(sketch_times(spec, A, t)).shape[1] for t in range(trials)]


def _match_oracle(spec, A, trials):
    """Each trial's rank and projector equal the per-trial ``orth_rowspace`` ones."""
    bases = _bases(spec, A, trials)
    assert len(bases) == trials
    for t, V in enumerate(bases):
        Q = orth_rowspace(sketch_times(spec, A, t))
        assert _rank(V) == Q.shape[1]
        _close(V.T @ V, Q @ Q.T)
    return [_rank(V) for V in bases]


@pytest.mark.parametrize("k", [6, 8])
@pytest.mark.parametrize("family", ["gaussian", "rademacher", "less_uniform"])
def test_guard_ranks_straddling_the_cutoff(monkeypatch, family, k):
    # sigma_6 / sigma_1 = 10^-14.5 sits at the cutoff, so the SVD rule keeps 5
    # directions in some trials and 6 in others; the guard sends all of them there
    A = _decaying(-14.5)
    spec = SketchSpec(family, k=k, s=3, seed_stream=20)
    svd_trials = _count_svd_trials(monkeypatch)
    assert set(_match_oracle(spec, A, 33)) == {5, 6}
    assert sum(svd_trials) == 33


@pytest.mark.parametrize("family", ["gaussian", "rademacher"])
def test_guard_ranks_on_an_ill_conditioned_sketch(monkeypatch, family):
    # k = 5 < n on a spectrum down to 1e-10: every trial has rank 5 and
    # kappa(S A) between 6e7 and 3e9, inside the guard, so all keep the QR
    # basis.  The row space of such an S A is only defined to about eps * kappa,
    # so QR and SVD bases agree on the rank and on spanning the rows, not to
    # 1e-12 entrywise.
    A = _decaying(-10)
    spec = SketchSpec(family, k=5, seed_stream=21)
    svd_trials = _count_svd_trials(monkeypatch)
    bases = _bases(spec, A, 33)
    assert svd_trials == []
    assert [_rank(V) for V in bases] == _oracle_ranks(spec, A, 33) == [5] * 33
    for t, V in enumerate(bases):
        SA = sketch_times(spec, A, t)
        _close(V @ V.T, np.eye(5))
        assert np.linalg.norm(SA - SA @ V.T @ V) <= TOL * np.linalg.norm(SA)


def test_guard_mixes_clean_and_flagged_trials(monkeypatch):
    # half of A's rows are zero: a uniform row_sampling draw of k = 2 rows is
    # all-zero (rank 0), half zero (rank 1) or clean (rank 2), within one block
    A = _matrix()
    A[::2] = 0.0
    spec = SketchSpec("row_sampling", k=2, seed_stream=22)
    svd_trials = _count_svd_trials(monkeypatch)
    ranks = _match_oracle(spec, A, 16)
    assert set(ranks) == {0, 1, 2}
    assert svd_trials == [ranks.count(0) + ranks.count(1)]


def test_guard_sees_a_small_singular_value_behind_a_large_diagonal(monkeypatch):
    # Kahan's matrix K is triangular, so the QR of K is K itself: its diagonal
    # clears the guard by about 1e9, yet sigma_min is below the cutoff (rank
    # 79 of 80); only the 1/||T^-1||_F test catches it.  The second trial is clean.
    n, c = 80, 0.4
    K = np.sqrt(1 - c * c) ** np.arange(n)[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    SA = np.stack([K.T, gen_gaussian_unit_rows(n, n, seed=4)])
    svd_trials = _count_svd_trials(monkeypatch)
    V = sketch._row_bases(SA)
    assert svd_trials == [1]
    Qs = [orth_rowspace(M) for M in SA]
    assert [_rank(B) for B in V] == [Q.shape[1] for Q in Qs] == [n - 1, n]
    for B, Q in zip(V, Qs):
        _close(B.T @ B, Q @ Q.T)


@pytest.mark.parametrize("name", _IDS)
def test_clean_trials_skip_the_svd(monkeypatch, name):
    # on this well-conditioned A only rank-deficient trials (repeated rows of
    # row_sampling) fall short of the guard; every full-rank one keeps its QR basis
    A = _matrix()
    spec = _specs(A)[name]
    svd_trials = _count_svd_trials(monkeypatch)
    ranks = _match_oracle(spec, A, 33)
    assert sum(svd_trials) == sum(r < spec.k for r in ranks)


@pytest.mark.parametrize("k", [6, 9])
@pytest.mark.parametrize("name", ["gaussian", "less_uniform"])
def test_square_and_wide_sketches(name, k):
    A = _matrix()
    spec = replace(_specs(A)[name], k=k)
    assert [B.shape for B in sketched_bases(spec, A, 17)] == [(16, 6, 6), (1, 6, 6)]
    assert _match_oracle(spec, A, 17) == [6] * 17


@pytest.mark.parametrize("trials", [5, 17])
def test_gaussian_block_draws_match_sketch_times(monkeypatch, trials):
    # the kernel's batched G @ R, captured on its way into the block step
    A = _matrix()
    R = row_factor(A)
    spec = _specs(A)["gaussian"]
    blocks = []
    row_bases = sketch._row_bases
    monkeypatch.setattr(sketch, "_row_bases", lambda SA: blocks.append(SA) or row_bases(SA))
    list(sketched_bases(spec, A, trials, R))
    SA = np.concatenate(blocks)
    assert SA.shape == (trials, spec.k, A.shape[1])
    for t in range(trials):
        _close(SA[t], sketch_times(spec, A, t, R))
