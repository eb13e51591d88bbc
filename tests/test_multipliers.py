"""Bit identity of the bootstrap multipliers with numpy's own streams.

``_rademacher_rows`` hashes a chunk's seeds, one shared prefix and a row of
replicate numbers, in one vectorised pass and lets numpy seed each row's
``PCG64``; these tests hold every row to
``default_rng(SeedSequence(prefix + (r,))).integers(0, 2, n)``,
so they need numpy and pytest alone and can run against whatever numpy is
installed.
"""

import numpy as np
import pytest

from robustts.bootstrap import DEFAULT_B, _rademacher_rows, rademacher

EDGE_PARTS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3)
SIZES = (1, 2, 149, 150, 999)


def numpy_signs(seed, n: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence(seed)).integers(0, 2, size=n) * 2.0 - 1.0


def random_seeds(rng, count: int) -> list[tuple[int, ...]]:
    """Seed tuples of 0-6 parts, mixing the word-boundary values with random ints up to 2**70."""
    seeds = []
    for _ in range(count):
        parts = []
        for _ in range(int(rng.integers(0, 7))):
            if rng.random() < 0.4:
                parts.append(EDGE_PARTS[int(rng.integers(len(EDGE_PARTS)))])
            else:
                value = int(rng.integers(0, 2**62)) << int(rng.integers(0, 9))
                parts.append(value >> int(rng.integers(0, 62)))
        seeds.append(tuple(parts))
    return seeds


def assert_rows_are_numpy(prefix, rs, n: int):
    got = _rademacher_rows(prefix, rs, n)
    assert got.shape == (len(rs), n) and got.dtype == np.float64
    for r, row in zip(rs, got):
        assert row.tobytes() == numpy_signs(prefix + (r,), n).tobytes(), (prefix, r)


def test_random_seed_tuples_one_at_a_time():
    rng = np.random.default_rng(20)
    seeds = random_seeds(rng, 500) + [(), (0,), (2**64 + 3,), (2**32 - 1, 2**32)]
    for i, seed in enumerate(seeds):
        n = SIZES[i % len(SIZES)]
        assert rademacher(seed, n).tobytes() == numpy_signs(seed, n).tobytes(), seed


# prefixes whose seeds prefix + (r,) hash 1 to 11 words: 3, 4 and 5 words straddle the pool of four
WIDTH_PREFIXES = [
    (), (0,), (2**32,), (1, 2), (2**64 + 3,), (2**32 - 1, 2**32), (5, 6, 7), (2**64 - 1, 9), (1,) * 4,
    (2**64 + 3, 0), (2**64 + 3, 2**32), (0, 2**64 - 1, 1, 2**32), (2**64 + 3, 1, 2**32 - 1, 2**32, 0, 2**64 - 1),
]


@pytest.mark.parametrize("prefix", WIDTH_PREFIXES)
def test_chunk_rows_are_numpy_at_every_width(prefix):
    for n in SIZES:
        assert_rows_are_numpy(prefix, [0, 1, 2**32 - 1], n)


def test_chunk_rows_are_numpy_for_random_prefixes():
    rng = np.random.default_rng(21)
    for i, prefix in enumerate(random_seeds(rng, 120)):
        assert_rows_are_numpy(prefix, [0, 1, 2**32 - 1, int(rng.integers(2, 2**32 - 1))], SIZES[i % len(SIZES)])


def test_chunk_rows_equal_one_seed_calls():
    rng = np.random.default_rng(22)
    rs = range(1, 201)
    for prefix in random_seeds(rng, 3):
        for n in (1, 150, 999):
            whole = _rademacher_rows(prefix, rs, n)
            cuts = np.sort(rng.choice(np.arange(1, len(rs)), size=5, replace=False))
            parts = [_rademacher_rows(prefix, rs[lo:hi], n) for lo, hi in zip([0, *cuts], [*cuts, len(rs)])]
            assert np.concatenate(parts).tobytes() == whole.tobytes()
            for i in rng.choice(len(rs), size=20, replace=False):
                assert _rademacher_rows(prefix, [rs[i]], n)[0].tobytes() == whole[i].tobytes()


@pytest.mark.parametrize("s", [0, 12345])
def test_bench_seed_blocks(s):
    # the (s, i, r) seeds of the benchmark reports: five T=150 series and one
    # T=1000 series, replicates 1..999
    for i in range(6):
        assert_rows_are_numpy((s, i), range(1, DEFAULT_B + 1), 149 if i < 5 else 999)


def test_int_seed_is_its_one_part_tuple():
    assert rademacher(7, 33).tobytes() == rademacher((7,), 33).tobytes() == numpy_signs(7, 33).tobytes()
    assert _rademacher_rows((), [7], 33)[0].tobytes() == rademacher(7, 33).tobytes()


def test_n_must_be_positive():
    with pytest.raises(ValueError, match="n must be"):
        _rademacher_rows((1,), None, 0)
    with pytest.raises(ValueError, match="n must be"):
        rademacher(1, 0)
