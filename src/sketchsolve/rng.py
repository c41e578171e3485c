"""Deterministic RNG streams.

Every random draw in the library comes from a stream addressed by a master
seed plus an integer key path, so independent trials/runs can execute in any
order (or in parallel) and still reproduce bit-identically.  :func:`stream`
defines a stream; :func:`streams` seats the same streams for many keys at
once, for the loops that draw one sketch per key.
"""

from __future__ import annotations

import numpy as np

KeyPath = int | tuple[int, ...]

#: numpy's ``SeedSequence`` hash and mix constants and ``PCG64``'s multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
#: keys seated per batch by :func:`streams`
_CHUNK = 64
#: whether this numpy seeds PCG64 as :func:`_seat` does (checked on first use)
_seat_matches: bool | None = None


def as_key(trial: KeyPath) -> tuple[int, ...]:
    if isinstance(trial, (int, np.integer)):
        return (int(trial),)
    return tuple(int(t) for t in trial)


def stream(master_seed: int, trial: KeyPath = ()) -> np.random.Generator:
    """Generator for the stream addressed by ``(master_seed, *trial)``."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=as_key(trial))
    return np.random.default_rng(ss)


def _hash_consts(init: int, mult: int, start: int, count: int) -> list[int]:
    """``init * mult**i mod 2**32`` for i in [start, start + count]."""
    return [init * pow(mult, i, 1 << 32) & _M32 for i in range(start, start + count + 1)]


def _seat(pool: list[int], keys: list[tuple[int, ...]]) -> list[tuple[int, int]] | None:
    """PCG64 ``(state, inc)`` of the stream of each key under a seed whose
    ``SeedSequence`` pool is ``pool``; None unless the keys have one length
    and every word is in [0, 2**32).

    The seed's zero-padded entropy took 16 hash steps, so each key column
    mixes into the four pool words with the next four hash constants; the
    four uint64 of ``generate_state`` then seat PCG64 by its rule:
    ``inc = seq << 1 | 1``, step, ``state += initstate``, step.  The keys run
    side by side in 64-bit lanes of Python ints (a product of two 32-bit
    words fits a lane; ``& m32`` drops what a shift moves across lanes), so
    each hash step is one int operation for the whole batch.  Lanes are read
    back in the host's byte order; where that is not little-endian the check
    in :func:`_seating_matches` fails and :func:`streams` falls back.
    """
    if len({len(key) for key in keys}) != 1 or not all(
            0 <= w <= _M32 for key in keys for w in key):
        return None
    one = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(keys), "little")  # 1 in every lane
    m32 = one * _M32

    def hashed(x, h0, h1):
        x = (x ^ h0 * one) * h1 & m32
        return x ^ x >> 16 & m32

    mixer = [p * one for p in pool]
    for j, col in enumerate(zip(*keys)):
        h = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * j, 4)
        x = int.from_bytes(b"".join(w.to_bytes(8, "little") for w in col), "little")
        for i in range(4):  # mix(m, y) = MIX_L m - MIX_R y mod 2**32, as a sum of lanes
            m = (mixer[i] * _MIX_L & m32) + (hashed(x, h[i], h[i + 1]) * (2**32 - _MIX_R) & m32)
            m &= m32
            mixer[i] = m ^ m >> 16 & m32
    g = _hash_consts(_INIT_B, _MULT_B, 0, 8)
    w = [hashed(mixer[i % 4], g[i], g[i + 1]) for i in range(8)]
    lanes = [memoryview((w[i + 1] << 32 | w[i]).to_bytes(8 * len(keys), "little")).cast("Q")
             for i in range(0, 8, 2)]
    seats = []
    for s_hi, s_lo, q_hi, q_lo in zip(*lanes):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
        seats.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return seats


def _seating_matches() -> bool:
    """Whether :func:`_seat` reproduces this numpy's seeding, on one key."""
    global _seat_matches
    if _seat_matches is None:
        seed, key = (1 << 127) + 3, (0xFFFFFFFF, 5)
        ref = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state["state"]
        ((state, inc),) = _seat(np.random.SeedSequence(seed).pool.tolist(), [key])
        _seat_matches = ref == {"state": state, "inc": inc}
    return _seat_matches


def streams(master_seed: int, keys):
    """Yield a Generator on ``stream(master_seed, key)`` for each key in
    ``keys``, drawing exactly as that stream does.

    One Generator is re-seated key by key, so the one yielded for a key is
    valid only until the next key is requested.  ``keys`` is read lazily, in
    batches of :data:`_CHUNK` seated by :func:`_seat`.  A batch that
    :func:`_seat` cannot take, a seed outside [0, 2**128) and a numpy whose
    seeding differs go through :func:`stream` key by key.
    """
    seed, keys = int(master_seed), iter(keys)
    batched = 0 <= seed < 1 << 128 and _seating_matches()
    if batched:
        ss = np.random.SeedSequence(seed)
        pool, rng = ss.pool.tolist(), np.random.Generator(np.random.PCG64(ss))
    while chunk := [as_key(k) for _, k in zip(range(_CHUNK), keys)]:
        seats = _seat(pool, chunk) if batched else None
        if seats is None:
            for key in chunk:
                yield stream(seed, key)
            continue
        for state, inc in seats:
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield rng


def child_seed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed, for handing to APIs that take plain seeds."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    state = ss.generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)
