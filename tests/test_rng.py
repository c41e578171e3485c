"""Batched stream seating (``rng.streams``) against the per-key ``rng.stream``.

``rng.stream`` defines every stream.  The solver, trial and RSN loops seat
the same streams in batches; these tests pin every draw of the batched path,
and every output of its three users, to the per-key definition.
"""

import itertools

import numpy as np
import pytest

from sketchsolve import newton, rng, sketch, solver
from sketchsolve.matgen import SpectralProfile, gen_spectral_matrix, make_system
from sketchsolve.randsvd import err_monte_carlo
from sketchsolve.rng import child_seed, stream, streams
from sketchsolve.sketch import SketchSpec, draw_sketch
from sketchsolve.spectral import expected_projection

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**127 + 3,
         child_seed(1, 2), child_seed(4242, 3, 1)]
TOP = 2**32 - 1
KEYS = [
    [(0,), (TOP,), (5,)],
    [(0, 0), (TOP, 7), (3, TOP), (TOP, TOP)],
    [(0, 0, 0), (1, 2, 3), (TOP, 0, TOP)],
]
M = 40
P = np.arange(1.0, M + 1.0) / (M * (M + 1) / 2)


def _specs(seed):
    """One spec per family: dense draws, and sparse draws that take
    ``integers`` (uniform) or ``random`` (weighted) and then ``standard_normal``."""
    return [
        SketchSpec("gaussian", k=3, seed_stream=seed),
        SketchSpec("rademacher", k=3, seed_stream=seed),
        SketchSpec("less", k=3, s=4, sampling=P, seed_stream=seed),
        SketchSpec("less_uniform", k=3, s=4, seed_stream=seed),
        SketchSpec("row_sampling", k=3, sampling=P, seed_stream=seed),
        SketchSpec("row_sampling", k=3, seed_stream=seed),
    ]


def _same(a, b):
    if isinstance(a, sketch.SparseSketch):
        return (np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
                and a.m == b.m)
    return np.array_equal(a, b)


def _count_stream_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return stream(*args)

    monkeypatch.setattr(rng, "stream", counted)
    return calls


def test_seating_matches_this_numpy():
    # otherwise every other test here passes through the per-key fallback
    assert rng._seating_matches()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", KEYS, ids=["len1", "len2", "len3"])
def test_draws_match_stream(seed, keys, monkeypatch):
    calls = _count_stream_calls(monkeypatch)
    for spec in _specs(seed):
        for g, key in zip(streams(seed, keys), keys, strict=True):
            assert _same(draw_sketch(spec, M, g), draw_sketch(spec, M, key)), (spec.family, key)
    for g, key in zip(streams(seed, keys), keys, strict=True):
        ref = stream(seed, key)
        assert g.standard_normal(5).tolist() == ref.standard_normal(5).tolist()
        assert g.integers(0, 2**40, 3).tolist() == ref.integers(0, 2**40, 3).tolist()
        assert g.random(2).tolist() == ref.random(2).tolist()
    assert calls == []


def test_many_keys_across_batches():
    keys = [(r, t) for r in range(3) for t in range(150)]
    spec = SketchSpec("less_uniform", k=4, s=3, seed_stream=child_seed(7, 1))
    assert all(_same(draw_sketch(spec, M, g), draw_sketch(spec, M, key))
               for g, key in zip(streams(spec.seed_stream, keys), keys, strict=True))


def test_int_keys_are_one_word_keys():
    assert [g.random() for g in streams(3, range(70))] == \
        [stream(3, t).random() for t in range(70)]


@pytest.mark.parametrize("seed,keys", [
    (5, [(2**32,), (7,)]),  # a key word of two or more uint32 words
    (5, [(1, 2**40), (2, 3)]),
    (2**128, [(0,), (1,)]),  # a seed of five uint32 words
    (2**130 + 5, [(TOP, 3)]),
    (9, [(1,), (1, 2)]),  # keys of mixed lengths in one batch
], ids=["word_2^32", "word_2^40", "seed_2^128", "seed_2^130", "mixed_lengths"])
def test_keys_outside_the_batch_take_the_stream_route(seed, keys, monkeypatch):
    calls = _count_stream_calls(monkeypatch)
    got = [g.standard_normal(4).tolist() for g in streams(seed, keys)]
    assert got == [stream(seed, key).standard_normal(4).tolist() for key in keys]
    assert len(calls) == len(keys)


def test_changed_seeding_takes_the_stream_route(monkeypatch):
    monkeypatch.setattr(rng, "_seat_matches", False)
    calls = _count_stream_calls(monkeypatch)
    keys = [(0, t) for t in range(5)]
    assert [g.random() for g in streams(1, keys)] == [stream(1, key).random() for key in keys]
    assert len(calls) == 5


def test_negative_seed_raises_as_stream_does():
    with pytest.raises(ValueError) as ref:
        stream(-1, (0,))
    with pytest.raises(ValueError, match=str(ref.value)):
        next(streams(-1, [(0,)]))


def test_one_generator_is_reseated():
    # the Generator for a key is valid only until the next key
    first, second = streams(1, [(0,), (1,)])
    assert first is second


# --- the three users, pinned to a per-key reference -----------------------------


def _per_key(monkeypatch, module, name, key_of):
    """Replace ``module.name`` (``draw_sketch`` or ``sketch_times``) by a draw
    keyed by the call count: the i-th call draws from ``key_of(i)`` through
    the original function, ignoring the batched Generator it was handed."""
    original = getattr(module, name)
    count = itertools.count()

    def keyed(spec, data, trial, *rest):
        assert isinstance(trial, np.random.Generator)
        return original(spec, data, key_of(next(count)), *rest)

    monkeypatch.setattr(module, name, keyed)


def _family_specs(A, seed):
    p = sketch.build_less_distribution(A)
    return [
        SketchSpec("gaussian", k=4, seed_stream=seed),
        SketchSpec("rademacher", k=4, seed_stream=seed),
        SketchSpec("less", k=4, s=5, sampling=p, seed_stream=seed),
        SketchSpec("less_uniform", k=4, s=5, seed_stream=seed),
        SketchSpec("row_sampling", k=4, seed_stream=seed),
    ]


A_TALL = gen_spectral_matrix(SpectralProfile.polynomial(1.0, 8), 60, seed=3)


@pytest.mark.parametrize("trial", [2, (1, 3)], ids=["run", "nested"])
@pytest.mark.parametrize("spec", _family_specs(A_TALL, child_seed(5, 2)),
                         ids=lambda s: s.family)
def test_solve_matches_per_key_loop(spec, trial, monkeypatch):
    system = make_system(A_TALL, seed=4)
    config = solver.SolverConfig(sketch=spec, max_iters=150, stop_tol=1e-300)
    _, log = solver.solve(system, config, trial)
    key = rng.as_key(trial)
    _per_key(monkeypatch, sketch, "sketch_times", lambda t: key + (t,))  # solve's block fill
    _, ref = solver.solve(system, config, trial)
    assert log.iterations == ref.iterations == 150
    for field in ("err", "dist", "rel_err", "fallback"):
        assert np.array_equal(getattr(log, field), getattr(ref, field)), field


@pytest.mark.parametrize("spec", _family_specs(A_TALL, child_seed(6, 2)),
                         ids=lambda s: s.family)
def test_trial_kernel_matches_per_key_loop(spec, monkeypatch):
    trials = 70  # two stream batches, five trial blocks
    est = expected_projection(A_TALL, spec, trials)
    err = err_monte_carlo(A_TALL, spec, trials)
    with monkeypatch.context() as patch:
        _per_key(patch, sketch, "sketch_times", lambda t: t)
        ref_est = expected_projection(A_TALL, spec, trials)
    _per_key(monkeypatch, sketch, "sketch_times", lambda t: t)
    ref_err = err_monte_carlo(A_TALL, spec, trials)
    assert np.array_equal(est.mean_P, ref_est.mean_P)
    assert err.mean == ref_err.mean and err.stderr == ref_err.stderr


def _logistic():
    g = np.random.default_rng(11)
    X = g.standard_normal((120, 12))
    y = np.where(X @ g.standard_normal(12) >= 0.0, 1.0, -1.0)
    return newton.logistic_objective(X, y, ridge=0.05)


@pytest.mark.parametrize("spec", _family_specs(_logistic().hessian(np.zeros(12)),
                                               child_seed(8, 2)),
                         ids=lambda s: s.family)
def test_rsn_solve_matches_per_key_loop(spec, monkeypatch):
    obj, trial = _logistic(), (4, 1)
    x, trace = newton.rsn_solve(obj, np.zeros(12), spec, max_iters=80, tol=0.0, trial=trial)
    _per_key(monkeypatch, newton, "draw_sketch", lambda t: trial + (t,))
    ref_x, ref = newton.rsn_solve(obj, np.zeros(12), spec, max_iters=80, tol=0.0, trial=trial)
    assert len(trace.f) == 80
    assert np.array_equal(x, ref_x)
    assert trace.f == ref.f and trace.grad_norm == ref.grad_norm
    assert trace.line_search_failures == ref.line_search_failures
