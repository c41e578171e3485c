"""Law-level oracles: exact expectations of the solver's and the sketches' draws.

Each test compares a few fixed scalar statistics with their exact mean, as a
z-score against the sample's standard error, under the bound |z| <= 4 fixed
in advance; seeds are fixed.  A test here fails on a wrong law (a dropped
importance weight, steps that repeat one sketch), not on moved bytes, so it
holds for any stream layout.  Only the public API is used.
"""

import numpy as np
import pytest

from sketchsolve import LinearSystem, SketchSpec, SolverConfig, apply_sketch, \
    build_less_distribution, draw_sketch, solve

Z_BOUND = 4.0


def _z(samples, expected):
    """``(mean - expected) / stderr`` over the first axis; a sample with no
    spread must equal ``expected`` exactly (z = 0 then)."""
    samples = np.asarray(samples, dtype=float)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    gap = samples.mean(axis=0) - expected
    assert np.all((se > 0) | (gap == 0)), (gap, se)
    return np.where(se > 0, gap / np.where(se > 0, se, 1.0), 0.0)


def _mean_path(system, spec, runs, steps, directions):
    """``<x_t - x*, u>`` for each run, step t <= ``steps`` and column u of
    ``directions``: a (runs, steps + 1, directions) array."""
    cfg = SolverConfig(sketch=spec, max_iters=steps, stop_tol=1e-300)
    paths = np.empty((runs, steps + 1, directions.shape[1]))
    for r in range(runs):
        log = solve(system, cfg, trial=r)[1]
        assert log.iterations == steps
        paths[r] = log.err @ directions
    return paths


def test_kaczmarz_mean_path():
    # row_sampling with k = 1 and p_i ~ ||a_i||^2 is randomized Kaczmarz
    # (Strohmer & Vershynin 2009): E[P] = A^T A / ||A||_F^2, so from x_0 = 0
    # E[x_t - x*] = (I - E[P])^t (-x*); checked along E[P]'s top and bottom
    # eigenvectors
    g = np.random.default_rng(20240901)
    A = g.standard_normal((300, 20)) * np.exp(g.uniform(-1.0, 1.0, 300))[:, None]
    x_star = g.standard_normal(20)
    system = LinearSystem(A=A, b=A @ x_star, x_star=x_star)
    row_sq = np.sum(A * A, axis=1)
    spec = SketchSpec("row_sampling", k=1, sampling=row_sq / row_sq.sum(), seed_stream=31)
    lam, V = np.linalg.eigh(A.T @ A / row_sq.sum())
    ends = V[:, [0, -1]]
    paths = _mean_path(system, spec, runs=1000, steps=40, directions=ends)
    for t in (10, 40):
        expected = (1.0 - lam[[0, -1]]) ** t * (ends.T @ -x_star)
        assert np.all(np.abs(_z(paths[:, t], expected)) <= Z_BOUND), t


def test_gaussian_mean_path_on_orthonormal_columns():
    # with A^T A = I, S A is a k x n Gaussian in law, so E[P] = (k/n) I and
    # E[x_t - x*] = (1 - k/n)^t (-x*): checked along x* and across it
    g = np.random.default_rng(7)
    m, n, k = 200, 12, 3
    A = np.linalg.qr(g.standard_normal((m, n)))[0]
    x_star = g.standard_normal(n)
    u = x_star / np.linalg.norm(x_star)
    w = g.standard_normal(n)
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    system = LinearSystem(A=A, b=A @ x_star, x_star=x_star)
    spec = SketchSpec("gaussian", k=k, seed_stream=32)
    paths = _mean_path(system, spec, runs=1000, steps=12, directions=np.column_stack([u, w]))
    for t in (4, 12):
        expected = (1.0 - k / n) ** t * np.array([-np.linalg.norm(x_star), 0.0])
        assert np.all(np.abs(_z(paths[:, t], expected)) <= Z_BOUND), t


def _coherent_rows():
    """200 x 10 rows whose first 5 are scaled x30, so their leverage scores
    are near 1 and every other row's is near 5/195."""
    A = np.random.default_rng(11).standard_normal((200, 10))
    A[:5] *= 30.0
    return A


@pytest.mark.parametrize("family,target", [
    ("gaussian", 10.0),
    ("rademacher", 10.0),
    ("less", 1.0),
    ("less_uniform", 1.0),
    ("row_sampling", 1.0),
])
def test_sequential_draws_are_isotropic(family, target):
    # E[S^T S] = I for the sparse families (each term carries 1/sqrt(k s p))
    # and k I for the dense ones; checked as the mean of ||S e_i||^2 over
    # 3,000 successive draws from one Generator, on the least and the most
    # likely rows under the leverage-score distribution
    A = _coherent_rows()
    p = build_less_distribution(A)
    rows = np.eye(A.shape[0])[:, [np.argmin(p), np.argmax(p)]]
    spec = SketchSpec(family, k=10, s=8 if family in ("less", "less_uniform") else None,
                      sampling=p if family in ("less", "row_sampling") else None)
    g = np.random.default_rng(33)
    norms = [np.sum(apply_sketch(draw_sketch(spec, A.shape[0], g), rows) ** 2, axis=0)
             for _ in range(3000)]
    assert np.all(np.abs(_z(norms, target)) <= Z_BOUND)
