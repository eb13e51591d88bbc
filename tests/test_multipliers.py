"""Bit identity of the bootstrap multipliers with numpy's own streams.

``_rademacher_rows`` derives a chunk's signs in one vectorised pass; these
tests hold every row to ``default_rng(SeedSequence(seed)).integers(0, 2, n)``,
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


def assert_rows_are_numpy(seeds, n: int):
    got = _rademacher_rows(seeds, n)
    assert got.shape == (len(seeds), n) and got.dtype == np.float64
    for seed, row in zip(seeds, got):
        assert row.tobytes() == numpy_signs(seed, n).tobytes(), seed


def test_random_seed_tuples_one_at_a_time():
    rng = np.random.default_rng(20)
    seeds = random_seeds(rng, 500) + [(), (0,), (2**64 + 3,), (2**32 - 1, 2**32)]
    for i, seed in enumerate(seeds):
        n = SIZES[i % len(SIZES)]
        assert rademacher(seed, n).tobytes() == numpy_signs(seed, n).tobytes(), seed


def test_one_call_with_mixed_word_counts():
    # 0 to 14 words per seed: lanes with fewer words stop mixing early
    seeds = [(), (0,), (2**32,), (1, 2, 3), (2**64 + 3,), (5, 6, 7, 8), (2**64 + 3, 9, 2**32, 4), (1,) * 6]
    seeds += random_seeds(np.random.default_rng(21), 120)
    for n in SIZES:
        assert_rows_are_numpy(seeds, n)


def test_chunk_rows_equal_one_seed_calls():
    rng = np.random.default_rng(22)
    seeds = random_seeds(rng, 200)
    for n in (1, 150, 999):
        whole = _rademacher_rows(seeds, n)
        cuts = np.sort(rng.choice(np.arange(1, len(seeds)), size=5, replace=False))
        parts = [_rademacher_rows(chunk, n) for chunk in np.split(np.array(seeds, dtype=object), cuts)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        for i in rng.choice(len(seeds), size=20, replace=False):
            assert _rademacher_rows([seeds[i]], n)[0].tobytes() == whole[i].tobytes()


@pytest.mark.parametrize("s", [0, 12345])
def test_bench_seed_blocks(s):
    # the (s, i, r) seeds of the benchmark reports: five T=150 series and one
    # T=1000 series, replicates 1..999
    for i in range(6):
        assert_rows_are_numpy([(s, i, r) for r in range(1, DEFAULT_B + 1)], 149 if i < 5 else 999)


def test_int_seed_is_its_one_part_tuple():
    assert _rademacher_rows([7, (7,)], 33)[0].tobytes() == _rademacher_rows([(7,)], 33)[0].tobytes()
    assert rademacher(7, 33).tobytes() == numpy_signs(7, 33).tobytes()


def test_n_must_be_positive():
    with pytest.raises(ValueError, match="n must be"):
        _rademacher_rows([(1,)], 0)
