"""One factorization per system: ``make_system`` takes ``R = row_factor(A)``
and the singular values of R, and every consumer reads them."""

import numpy as np
import pytest

from sketchsolve.expcli.config import parse_config
from sketchsolve.expcli.runner import run_experiment
from sketchsolve.matgen import (LinearSystem, SpectralProfile, gen_gaussian_unit_rows,
                                gen_spectral_matrix, make_system)
from sketchsolve.sketch import SketchSpec, leverage_scores, row_factor
from sketchsolve.solver import SolverConfig, solve

M, N = 60, 8


def _coherent(m=50, n=6):
    """First n rows of I_m: leverage 1 on n rows, 0 on the rest."""
    A = np.zeros((m, n))
    A[:n] = np.eye(n)
    return A


def _inputs():
    rng = np.random.default_rng(5)
    return {
        "tall": gen_spectral_matrix(SpectralProfile.polynomial(1.5, 12), 90, seed=3),
        "wide": gen_gaussian_unit_rows(8, 20, seed=4),
        "rank_deficient": rng.standard_normal((30, 3)) @ rng.standard_normal((3, 7)),
        "coherent": _coherent(),
    }


@pytest.mark.parametrize("experiment,families,run", [
    ("surrogate_compare", ["gaussian", "less"], {"trials": 8, "err_trials": 2}),
    ("rate_sweep", ["gaussian"],
     {"runs": 2, "tail": 3, "max_iters": 5, "err_trials": 2, "with_bounds": True}),
    ("randsvd_err", ["gaussian", "less_uniform"], {"err_trials": 2}),
    ("eigendecay", ["gaussian"], {"runs": 2, "max_iters": 5, "trials": 4}),
])
def test_run_experiment_factors_a_once(tmp_path, monkeypatch, experiment, families, run):
    # gaussian_unit draws A without a QR of its own, so every (M, N) call is of A
    calls = {"qr": 0, "svd": 0}
    for name in calls:
        def counted(X, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += np.shape(X) == (M, N)
            return _fn(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    cfg = parse_config({"experiment": experiment, "master_seed": 3,
                        "matrix": {"kind": "gaussian_unit", "m": M, "n": N},
                        "sketch": {"families": families, "k": [2, 4], "s": [3]},
                        "run": run})
    run_experiment(cfg, tmp_path)
    assert calls == {"qr": 1, "svd": 0}


@pytest.mark.parametrize("case", ["tall", "wide", "rank_deficient", "coherent"])
def test_make_system_keeps_factor_and_spectrum(case):
    A = _inputs()[case]
    m, n = A.shape
    system = make_system(A, seed=1)
    assert np.array_equal(system.R, row_factor(A))
    s = np.linalg.svd(A, compute_uv=False)
    np.testing.assert_allclose(system.sigma, s, rtol=0.0, atol=1e-13 * s[0])
    assert system.rank == int(np.sum(s > max(m, n) * s[0] * 1e-12))
    assert system.rank == {"tall": 12, "wide": 8, "rank_deficient": 3, "coherent": 6}[case]


def test_hand_built_system_counts_as_full_rank():
    A = gen_gaussian_unit_rows(8, 20, seed=4)
    system = LinearSystem(A=A, b=np.zeros(8), x_star=np.zeros(20))
    assert system.R is None and system.sigma is None
    assert system.rank == 8


@pytest.mark.parametrize("case", ["tall", "coherent"])
def test_leverage_scores_from_the_factor(case):
    A = _inputs()[case]
    U = np.linalg.svd(A, full_matrices=False)[0]
    reference = np.sum(U * U, axis=1)
    given_r = leverage_scores(A, make_system(A, seed=1).R)
    np.testing.assert_allclose(given_r, leverage_scores(A), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(given_r, reference, rtol=0.0, atol=1e-12)


def test_wide_full_row_rank_leverage_scores_are_ones():
    # m < n with rank m: Q is m x m orthogonal, so A A^+ = I_m and p is uniform
    A = _inputs()["wide"]
    U = np.linalg.svd(A, full_matrices=False)[0]
    np.testing.assert_allclose(np.sum(U * U, axis=1), np.ones(8), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(leverage_scores(A, make_system(A, seed=1).R), np.ones(8))
    np.testing.assert_array_equal(leverage_scores(A), np.ones(8))


@pytest.mark.parametrize("case", ["rank_deficient", "wide_rank_deficient"])
def test_leverage_scores_need_full_rank(case):
    rng = np.random.default_rng(6)
    A = (_inputs()["rank_deficient"] if case == "rank_deficient"
         else rng.standard_normal((8, 5)) @ rng.standard_normal((5, 20)))
    for R in (make_system(A, seed=1).R, None):
        with pytest.raises(ValueError, match="rank-deficient"):
            leverage_scores(A, R)


def test_leverage_scores_match_thin_svd_on_a_profile():
    A = gen_spectral_matrix(SpectralProfile.polynomial(1.5, 50), 1000, seed=7)
    U = np.linalg.svd(A, full_matrices=False)[0]
    np.testing.assert_allclose(leverage_scores(A, make_system(A, seed=1).R),
                               np.sum(U * U, axis=1), rtol=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "less_uniform", "row_sampling"])
def test_solve_reads_the_shared_buffer_like_a_stacked_copy(family):
    # make_system's [A | b] is one buffer with A and b as views; a hand-built
    # system stacks copies of them: every step must be the same to the bit
    system = make_system(gen_spectral_matrix(SpectralProfile.polynomial(1.5, 12), 90, seed=3),
                         seed=4)
    hand = LinearSystem(A=system.A.copy(), b=system.b.copy(), x_star=system.x_star)
    config = SolverConfig(sketch=SketchSpec(family, k=4, s=5, seed_stream=6), max_iters=40,
                          stop_tol=1e-300)
    for trial in range(2):
        x, log = solve(system, config, trial)
        x_hand, log_hand = solve(hand, config, trial)
        np.testing.assert_array_equal(x, x_hand)
        for name in ("err", "dist", "rel_err", "fallback"):
            np.testing.assert_array_equal(getattr(log, name), getattr(log_hand, name))
