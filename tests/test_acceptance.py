"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here; Monte-Carlo streams are seeded so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from sketchsolve.expcli.config import parse_config
from sketchsolve.expcli.runner import run_experiment
from sketchsolve.linalg import orth_rowspace
from sketchsolve.matgen import SpectralProfile, gen_gaussian_unit_rows, \
    gen_spectral_matrix, make_system
from sketchsolve.newton import full_newton, logistic_objective, rho_certificate, rsn_solve
from sketchsolve.randsvd import err_km1, err_monte_carlo, err_upper_bound_min_p
from sketchsolve.rng import child_seed, stream
from sketchsolve.sketch import SketchSpec, build_less_distribution, draw_sketch, sketch_times
from sketchsolve.solver import SolverConfig, estimate_rate, project_step, solve
from sketchsolve.spectral import expected_projection, surrogate_eigenvalues, worst_case_rate

SEED = 20240901


def _report(num, message):
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


@pytest.fixture(scope="module")
def gaus_matrix():
    return gen_gaussian_unit_rows(1000, 50, seed=child_seed(SEED, 100))


@pytest.fixture(scope="module")
def flat_matrix():
    return gen_spectral_matrix(SpectralProfile.flat(50), 1000, seed=child_seed(SEED, 101))


def _sandwich(A, family, ks, s, sampling, seed_key, trials=1600):
    """Two-sided surrogate comparison shared by criteria 4 and 9."""
    svals = np.linalg.svd(A, compute_uv=False)
    r = float(np.sum(svals**2) / svals[0] ** 2)
    eps_hat = 5.0 / math.sqrt(r)
    results = []
    for k in ks:
        assert r >= 4 * k
        spec = SketchSpec(family, k=k, s=s, sampling=sampling,
                          seed_stream=child_seed(SEED, seed_key, k))
        est = expected_projection(A, spec, trials)
        err = err_km1(A, k, child_seed(SEED, seed_key + 1, k), trials=50)
        lam_bar = np.sort(surrogate_eigenvalues(svals**2, k / err.mean))[::-1]
        ratio = est.eigenvalues / lam_bar
        assert np.all(ratio >= 1.0 - eps_hat), (family, k, ratio.min())
        assert np.all(ratio <= 1.0 + eps_hat), (family, k, ratio.max())
        results.append((k, float(ratio.min()), float(ratio.max())))
    return eps_hat, results


def test_criterion_01_symmetry_oracle():
    t0 = time.perf_counter()
    n = 100
    A = np.eye(n)
    for k in (5, 10, 20):
        spec = SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 1, k))
        lam_min = worst_case_rate(expected_projection(A, spec, trials=4000))
        assert abs(lam_min - k / n) <= 0.02, (k, lam_min)
        est = err_monte_carlo(A, spec.with_seed(child_seed(SEED, 2, k)), trials=50)
        assert abs(est.mean - (n - k)) <= 3 * est.stderr + 1e-9, (k, est)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    _report(1, f"identity symmetry oracle, lambda_min within 0.02 and "
               f"Err within 3 SE for k in (5,10,20); {elapsed:.1f}s")


def test_criterion_02_worst_case_rate_identity():
    k, trials = 5, 2000
    for i in range(3):
        A = stream(child_seed(SEED, 3, i)).standard_normal((200, 30))
        system = make_system(A, seed=child_seed(SEED, 4, i))
        spec_a = SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 5, i))
        est = expected_projection(A, spec_a, trials)
        eigvals, eigvecs = np.linalg.eigh(est.mean_P)
        lam_min, v = eigvals[0], eigvecs[:, 0]
        # per-trial spread of v^T P v over the same batch (its mean is lam_min)
        q = np.empty(trials)
        for t in range(trials):
            Q = orth_rowspace(sketch_times(spec_a, A, t))
            q[t] = np.sum((Q.T @ v) ** 2)
        assert np.mean(q) == pytest.approx(lam_min, abs=1e-10)
        se_a = q.std(ddof=1) / math.sqrt(trials)
        # independent batch: one-step contraction at the worst-case point
        spec_b = SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 6, i))
        x = system.x_star + v
        c = np.empty(trials)
        for t in range(trials):
            x_new, _ = project_step(x, system, draw_sketch(spec_b, 200, trial=t))
            c[t] = np.sum((x_new - system.x_star) ** 2)
        se_b = c.std(ddof=1) / math.sqrt(trials)
        contraction = 1.0 - c.mean()
        assert abs(contraction - lam_min) <= 3 * (se_a + se_b), (i, contraction, lam_min)
    _report(2, "one-step contraction at the worst-case point matches "
               "1 - lambda_min(mean P) within 3 MC standard errors on 3 matrices")


def test_criterion_03_surrogate_tightness(gaus_matrix):
    t0 = time.perf_counter()
    A = gaus_matrix
    sig_min_sq = float(np.linalg.svd(A, compute_uv=False)[-1] ** 2)
    gaps = {}
    for k in (5, 10, 15, 20, 25):
        spec = SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 7, k))
        s_min = worst_case_rate(expected_projection(A, spec, trials=1600))
        err = err_km1(A, k, child_seed(SEED, 8, k), trials=50)
        surrogate = k * sig_min_sq / (k * sig_min_sq + err.mean)
        gaps[k] = abs(s_min - surrogate) / s_min
        assert gaps[k] <= 0.10, (k, s_min, surrogate)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"
    worst = max(gaps.values())
    _report(3, f"surrogate within 10% of lambda_min(mean P) on 1000x50 "
               f"unit-row data for k=5..25 (worst gap {worst:.1%}); {elapsed:.1f}s")


def test_criterion_04_subgaussian_sandwich(flat_matrix):
    eps_hat, results = _sandwich(flat_matrix, "rademacher", (5, 10), None, None, 10)
    _report(4, f"Rademacher mean-P eigenvalues inside (1 +/- {eps_hat:.3f}) of the "
               f"surrogate for k in (5,10); ratio ranges {results}")


def test_criterion_05_rate_scaling():
    ks = [5, 10, 15, 20, 25]
    targets = {"flat": 0.9, "lin.01": 0.9, "poly1.5": 1.2}
    profiles = {
        "flat": SpectralProfile.flat(50),
        "lin.01": SpectralProfile.linear(0.01, 50),
        "poly1.5": SpectralProfile.polynomial(1.5, 50),
    }
    slopes = {}
    for name, prof in profiles.items():
        A = gen_spectral_matrix(prof, 1000, seed=child_seed(SEED, 11))
        system = make_system(A, seed=child_seed(SEED, 12))
        rates = []
        for k in ks:
            spec = SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 13, k))
            cfg = SolverConfig(sketch=spec, max_iters=1000, stop_tol=1e-5)
            rates.append(estimate_rate(system, cfg, runs=100, tail=50).empirical_rate)
        slope = float(np.polyfit(np.log(ks), np.log(rates), 1)[0])
        slopes[name] = slope
        assert slope >= targets[name], (name, slope, rates)
    _report(5, "log-log rate-vs-k slopes " +
            ", ".join(f"{m}={s:.2f}" for m, s in slopes.items()) +
            " meet thresholds (>=0.9, >=0.9, >=1.2)")


def test_criterion_06_randsvd_error_bound():
    n, m = 40, 300
    suite = {
        "flat": gen_spectral_matrix(SpectralProfile.flat(n), m, child_seed(SEED, 14)),
        "lin.01": gen_spectral_matrix(SpectralProfile.linear(0.01, n), m, child_seed(SEED, 15)),
        "poly1": gen_spectral_matrix(SpectralProfile.polynomial(1.0, n), m, child_seed(SEED, 16)),
        "poly1.5": gen_spectral_matrix(SpectralProfile.polynomial(1.5, n), m, child_seed(SEED, 17)),
        "step10": gen_spectral_matrix(
            SpectralProfile.step(10, SpectralProfile.linear(0.01, n),
                                 SpectralProfile.polynomial(1.0, n)),
            m, child_seed(SEED, 18)),
        "gaus": gen_gaussian_unit_rows(m, n, seed=child_seed(SEED, 19)),
    }
    checked = 0
    for name, A in suite.items():
        sigma = np.linalg.svd(A, compute_uv=False)
        for k in range(6, 21):
            est = err_monte_carlo(
                A, SketchSpec("gaussian", k=k, seed_stream=child_seed(SEED, 20, k)), trials=50)
            bound, _ = err_upper_bound_min_p(sigma, k)
            assert np.isfinite(bound) and bound > 0.0, (name, k)
            assert est.mean <= bound + 3 * est.stderr, (name, k, est.mean, bound)
            checked += 1
    _report(6, f"range-finder error bound dominates Monte-Carlo Err on "
               f"{checked} (matrix, k) cells")


def test_criterion_07_monotonicity_bulk():
    m, n = 60, 12
    A = gen_gaussian_unit_rows(m, n, seed=child_seed(SEED, 21))
    p = build_less_distribution(A).probabilities
    B = np.diag(np.linspace(0.5, 4.0, n))
    system_i = make_system(A, seed=child_seed(SEED, 22))
    system_b = make_system(A, seed=child_seed(SEED, 22), metric=B)
    families = [
        ("gaussian", None, None),
        ("rademacher", None, None),
        ("less", 8, p),
        ("less_uniform", 6, None),
        ("row_sampling", None, p),
    ]
    total, violations = 0, 0
    per_family = 18000  # x2 metric variants for the first family = 1e5 total
    for fi, (family, s, sampling) in enumerate(families):
        spec = SketchSpec(family, k=1, s=s, sampling=sampling,
                          seed_stream=child_seed(SEED, 23, fi))
        rng = stream(child_seed(SEED, 24, fi))
        n_draws = per_family + (10000 if family == "gaussian" else 0)
        for i in range(n_draws):
            k = 1 + (i % 8)
            spec.k = k
            system = system_b if (family == "gaussian" and i >= per_family) else system_i
            S = draw_sketch(spec, m, trial=i)
            x = rng.standard_normal(n)
            before = system.metric_norm(x - system.x_star)
            x_new, _ = project_step(x, system, S)
            after = system.metric_norm(x_new - system.x_star)
            total += 1
            if after > before * (1.0 + 1e-10):
                violations += 1
    assert total == 100000
    assert violations == 0
    _report(7, f"zero monotonicity violations across {total} projection steps "
               f"over all sketch families")


def test_criterion_08_sparsity_robustness(gaus_matrix):
    A = gaus_matrix
    n = A.shape[1]
    system = make_system(A, seed=child_seed(SEED, 25))
    s_sparse = math.ceil(n * math.log(n))  # 196
    ratios = {}
    for k in (10, 20):
        finals = {}
        for family, s in (("gaussian", None), ("less_uniform", s_sparse)):
            spec = SketchSpec(family, k=k, s=s, seed_stream=child_seed(SEED, 26, k))
            cfg = SolverConfig(sketch=spec, max_iters=30, stop_tol=1e-300)
            errs = [solve(system, cfg, trial=r)[1].rel_err[-1] for r in range(30)]
            finals[family] = float(np.mean(errs))
        ratio = max(finals.values()) / min(finals.values())
        ratios[k] = ratio
        assert ratio <= 2.0, (k, finals)
    _report(8, f"sparse (s={s_sparse}) vs dense final error ratios after 30 "
               f"iterations: " + ", ".join(f"k={k}: {r:.2f}x" for k, r in ratios.items()))


def test_criterion_09_less_sandwich(flat_matrix):
    A = flat_matrix
    n = A.shape[1]
    svals = np.linalg.svd(A, compute_uv=False)
    kappa = svals[0] / svals[-1]
    s = math.ceil(n * math.log(kappa * n))
    dist = build_less_distribution(A)
    eps_hat, results = _sandwich(A, "less", (5, 10), s, dist.probabilities, 30)
    _report(9, f"LESS (exact leverage scores, s={s}) passes the same sandwich "
               f"as criterion 4; ratio ranges {results}")


def test_criterion_10_newton():
    rng = stream(child_seed(SEED, 40))
    X = rng.standard_normal((500, 50))
    y = np.sign(X @ rng.standard_normal(50) + 0.1 * rng.standard_normal(500))
    y[y == 0] = 1.0
    obj = logistic_objective(X, y, ridge=1e-2)
    f_star = obj.value(full_newton(obj, np.zeros(50), tol=1e-12))
    spec = SketchSpec("gaussian", k=10, seed_stream=child_seed(SEED, 41))
    x, trace = rsn_solve(obj, np.zeros(50), spec, max_iters=500, tol=1e-9)
    f_vals = np.asarray(trace.f)
    assert np.all(np.diff(f_vals) <= 1e-12), "objective not monotone"
    gap = obj.value(x) - f_star
    assert gap <= 1e-6, gap
    assert len(trace.f) <= 500

    trials = 400
    cert = rho_certificate(obj.hessian(x), spec.with_seed(child_seed(SEED, 42)), trials)
    assert cert.crude_bound <= cert.rho_hat + 3.0 / math.sqrt(trials), cert
    _report(10, f"RSN reached f - f* = {gap:.2e} in {len(trace.f)} iterations "
                f"(monotone); crude certificate {cert.crude_bound:.4f} <= "
                f"rho_hat {cert.rho_hat:.4f} + tolerance")


def test_criterion_11_reproducibility(tmp_path):
    configs = [
        {
            "experiment": "rate_sweep",
            "master_seed": 4242,
            "matrix": {"kind": "identity", "n": 40},
            "sketch": {"families": ["gaussian", "less_uniform"], "k": [4, 8], "s": [12]},
            "run": {"runs": 6, "tail": 10, "max_iters": 40, "stop_tol": 1e-6,
                    "with_bounds": True},
        },
        {
            "experiment": "sparsity_sweep",
            "master_seed": 777,
            "matrix": {"kind": "gaussian_unit", "m": 150, "n": 15},
            "sketch": {"families": ["gaussian", "less_uniform"], "k": [5], "s": [3, 0]},
            "run": {"runs": 5, "iters": 8},
        },
    ]
    compared = 0
    for raw in configs:
        out1 = tmp_path / f"{raw['experiment']}_1"
        out2 = tmp_path / f"{raw['experiment']}_2"
        run_experiment(parse_config(dict(raw)), out1)
        run_experiment(parse_config(dict(raw)), out2)
        for f1 in sorted(out1.glob("*.csv")):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name
            compared += 1
    assert compared >= 2
    _report(11, f"byte-identical CSV output across reruns for {compared} files")
