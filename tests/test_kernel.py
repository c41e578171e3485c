"""The blocked trial kernel behind ``expected_projection`` and ``err_monte_carlo``.

Both estimators take trials in blocks of at most ``sketch.TRIAL_BLOCK``
through ``sketched_bases`` (one stacked SVD per block, per-trial rank
cutoff).  The oracle is the per-trial loop the kernel replaced:
``projection_matrix`` and ``residual_error`` on the trial's own sketch (for
Gaussian specs the dense ``G Q^T`` that ``sketch_times`` draws through).
Only summation orders differ, so the tolerance is 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from sketchsolve import sketch
from sketchsolve.linalg import symmetrize
from sketchsolve.matgen import gen_gaussian_unit_rows
from sketchsolve.randsvd import err_monte_carlo, residual_error
from sketchsolve.rng import stream
from sketchsolve.sketch import (
    SketchSpec,
    apply_sketch,
    build_less_distribution,
    draw_sketch,
    row_factor,
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
    p = build_less_distribution(A).probabilities
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


def _loop_err(A, k, spec, trials):
    spec_k = replace(spec, k=k)
    samples = [residual_error(A, _oracle_sketch(spec_k, A, t)) for t in range(trials)]
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
    est = err_monte_carlo(A, spec.k, spec, trials)
    mean, stderr = _loop_err(A, spec.k, spec, trials)
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
    assert err_monte_carlo(A, 3, spec, 20, R) == err_monte_carlo(A, 3, spec, 20)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", _IDS)
def test_results_do_not_depend_on_blocking(monkeypatch, name, block):
    A = _matrix()
    spec = _specs(A)[name]
    P = expected_projection(A, spec, 33)
    err = err_monte_carlo(A, 3, spec, 33)
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", block)
    _close(expected_projection(A, spec, 33).mean_P, P.mean_P)
    blocked = err_monte_carlo(A, 3, spec, 33)
    _close(blocked.mean, err.mean)
    _close(blocked.stderr, err.stderr)


def test_block_shapes(monkeypatch):
    A = _matrix()
    spec = _specs(A)["less"]
    assert [B.shape for B in sketched_bases(spec, A, 33)] == [(16, 4, 6), (16, 4, 6),
                                                               (1, 4, 6)]
    monkeypatch.setattr(sketch, "TRIAL_BLOCK", 7)
    assert [len(B) for B in sketched_bases(spec, A, 15)] == [7, 7, 1]
