"""Sieve wild bootstrap p-values for the unit-root battery.

Residuals of an AR sieve fitted to the first differences are flipped by
Rademacher multipliers, recoloured through the fitted filter and cumulated,
so every bootstrap series has a unit root by construction; recolouring and
cumulation are one FFT convolution with the sieve's cumulated impulse response.
The battery (including lag re-selection) is recomputed on each replicate and
p-values are rank based: ``p = (1 + #at-least-as-extreme) / (B + 1)``.

``unit_root_report`` (``B=0``: the battery alone) and ``unit_root_reports``
are the one road from a series to its statistics; ``_reports`` stacks the
observed series by length.  Replicates are resampled in chunks by
``_resample_chunk``, the one resampler, inside ``unitroot._battery_rows``,
the one chunk loop over the battery kernel, which serves the observed series
too.  Both work row by row, so no bit of a report depends on how the series
or the replicates are split into chunks.  A chunk's series overwrite the
array of their multipliers, and the kernel works in the one workspace of its
``_battery_rows`` call; nothing is shared between calls, so reports may run
on several threads at once and keep their bits.  Replication ``r`` draws its
multipliers from ``SeedSequence(seed + (r,))``, so results never depend on
evaluation order either: a chunk hashes the shared seed prefix and its ``r``
in one vectorised pass, and numpy seeds each row's ``PCG64`` from the words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError
from .series import _readonly
from .unitroot import MIN_BATTERY_LENGTH, STAT_TAILS, UnitRootStats
from .unitroot import _battery_rows, _stats, _values

__all__ = [
    "SieveModel",
    "BootstrapResult",
    "UnitRootReport",
    "fit_sieve",
    "rademacher",
    "unit_root_report",
    "unit_root_reports",
]

DEFAULT_B = 999
MIN_REPLICATIONS = 99


@dataclass(frozen=True)
class SieveModel:
    """AR(p) sieve fitted to first differences, with centered residuals."""

    phi: tuple[float, ...]
    residuals: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.residuals)
        object.__setattr__(self, "residuals", arr)
        if abs(float(arr.mean())) > 1e-12 * max(1.0, float(np.abs(arr).max())):
            raise ValueError("sieve residuals must be centered")

    @property
    def p(self) -> int:
        """The sieve order, one per AR coefficient."""
        return len(self.phi)

    @cached_property
    def _kernel(self) -> tuple[int, np.ndarray]:
        """:func:`_recolour_kernel` of this sieve, built once per model."""
        return _recolour_kernel(self.phi, len(self.residuals))


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap p-values, one per statistic, plus the run parameters."""

    p_values: dict[str, float]
    B: int
    seed: tuple[int, ...]

    def __post_init__(self):
        lo = 1.0 / (self.B + 1)
        for name, p in self.p_values.items():
            if not (lo - 1e-12 <= p <= 1.0 + 1e-12):
                raise ValueError(f"p-value for {name} outside [1/(B+1), 1]: {p}")


@dataclass(frozen=True)
class UnitRootReport:
    """Battery statistics and their bootstrap p-values for one series."""

    stats: UnitRootStats
    result: BootstrapResult

    @property
    def p_values(self) -> dict[str, float]:
        return self.result.p_values


# numpy's SeedSequence hash constants: pool size 4, xorshift 16
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _seed_tuple(seed) -> tuple[int, ...]:
    """``seed`` as a tuple of non-negative ints; as in ``SeedSequence``, no other seed is coerced."""
    parts = (seed,) if isinstance(seed, (int, np.integer)) else seed
    if not isinstance(parts, (tuple, list)) or not all(isinstance(s, (int, np.integer)) for s in parts):
        raise TypeError(f"seed must be a non-negative int or a tuple of them, got {seed!r}")
    if any(s < 0 for s in parts):
        raise ValueError("seed components must be non-negative")
    return tuple(int(s) for s in parts)


def _hash(v: np.ndarray, h: np.ndarray, h_next: np.ndarray) -> np.ndarray:
    """One step of SeedSequence's running hash on uint32 lanes ``v``, from constant ``h``."""
    v = (v ^ h) * h_next
    return v ^ (v >> _SHIFT)


def _rademacher_rows(prefix: tuple[int, ...], rs, n: int) -> np.ndarray:
    """``rademacher(prefix + (r,), n)`` as one row for each ``r < 2**32`` of ``rs``, or
    ``rademacher(prefix, n)`` as the one row when ``rs`` is None.  The entropy is a W x C
    uint32 array, the prefix's words split once above the row of ``r``: every lane has W
    words, so numpy's ``SeedSequence`` hash runs on all lanes in step, and numpy seeds each
    row's ``PCG64`` from the row's four hashed words."""
    from numpy.random import PCG64, bit_generator

    class Hashed(bit_generator.ISeedSequence):  # what PCG64 reads from a seed: its four state words
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    if n < 1:
        raise ValueError("n must be >= 1")
    words = [p >> s & _MASK32 for p in prefix for s in range(0, max(p.bit_length(), 1), 32)]
    width = max(len(words) + (rs is not None), 4)  # numpy zero-pads the entropy to its pool of four
    entropy = np.zeros((width, 1 if rs is None else len(rs)), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    if rs is not None:
        entropy[len(words)] = rs
    # the j-th hash step uses constants INIT * MULT**j and INIT * MULT**(j + 1), mod 2**32
    a = np.cumprod(np.array([_INIT_A] + [_MULT_A] * 4 * width, np.uint32), dtype=np.uint32)
    pool = list(_hash(entropy[:4], a[:4, None], a[1:5, None]))
    for j, (s, d) in enumerate(((s, d) for s in range(width) for d in range(4) if s != d), start=4):
        r = _MIX_L * pool[d] - _MIX_R * _hash(pool[s] if s < 4 else entropy[s], a[j], a[j + 1])
        pool[d] = r ^ (r >> _SHIFT)
    b = np.cumprod(np.array([_INIT_B] + [_MULT_B] * 8, np.uint32), dtype=np.uint32)
    state = _hash(np.array(pool * 2), b[:8, None], b[1:, None]).astype(np.uint64)
    # low half first, as numpy's '<u4' -> '<u8'; C-contiguous rows, as PCG64 reads their buffers
    keys = (state[0::2] | state[1::2] << np.uint64(32)).T.copy()
    block = np.empty((len(keys), (n + 1) // 2), dtype="<u8")
    for row, key in zip(block, keys):
        row[:] = PCG64(Hashed(key)).random_raw(len(row))
    bits = block.view("<u4")[:, :n]  # little-endian words put each low half first
    signs = np.right_shift(bits, 31, out=bits) * 2.0
    signs -= 1.0
    return signs


def rademacher(seed, n: int) -> np.ndarray:
    """Deterministic vector of equiprobable +-1 multipliers: the one-column case of
    :func:`_rademacher_rows`, whose hash of the seed's words numpy seeds ``PCG64`` from.

    The signs are the top bits of the 32-bit halves, low half first, of
    ``PCG64(SeedSequence(seed)).random_raw((n + 1) // 2)``.  That is bit for
    bit ``default_rng(SeedSequence(seed)).integers(0, 2, size=n) * 2.0 - 1.0``
    (Lemire's method never rejects at range 2 and returns the top bit of each
    32-bit draw), and NEP 19 keeps both streams stable."""
    return _rademacher_rows(_seed_tuple(seed), None, n)[0]


def fit_sieve(dy, p: int) -> SieveModel:
    """Least-squares AR(p) on the differences, intercept included.

    A fit with an inverse root of modulus >= 1, whose replicates would
    explode, is redone by Yule-Walker, which is always causal (Buhlmann
    1997): the biased autocovariances of the demeaned differences, one
    Toeplitz solve, intercept ``mean * (1 - sum(phi))``.  Residuals are
    re-centered so multiplying them by +-1 draws leaves the bootstrap
    innovations mean-zero.
    """
    d = np.asarray(dy, dtype=float)
    n = len(d)
    if p < 0:
        raise ValueError("sieve order must be >= 0")
    if n <= p + 2:
        raise ValueError(f"differences of length {n} too short for sieve order {p}")
    resp = d[p:]
    cols = [np.ones(n - p)]
    for j in range(1, p + 1):
        cols.append(d[p - j : n - j])
    X = np.column_stack(cols)
    G = X.T @ X
    try:
        b = np.linalg.solve(G, X.T @ resp)
        if p and np.abs(np.roots(np.r_[1.0, -b[1:]])).max() >= 1.0:
            u = d - d.mean()
            acov = np.array([u[: n - j] @ u[j:] for j in range(p + 1)]) / n
            phi = np.linalg.solve(acov[np.abs(np.subtract.outer(range(p), range(p)))], acov[1:])
            b = np.r_[d.mean() * (1.0 - phi.sum()), phi]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular sieve regression") from exc
    resid = resp - X @ b
    resid = resid - resid.mean()
    return SieveModel(phi=tuple(float(c) for c in b[1:]), residuals=resid)


def _fft_length(m: int) -> int:
    """Smallest 5-smooth integer >= m: numpy's FFT is slow on large prime factors."""
    while True:
        k = m
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return m
        m += 1


def _recolour_kernel(phi: tuple[float, ...], n: int) -> tuple[int, np.ndarray]:
    """FFT length ``L >= 2n - 1`` and ``rfft(c, L)``, ``c = cumsum(h)`` of length ``n``.

    ``h_0 = 1``, ``h_t = sum_j phi_j h_{t-j}``: the impulse response of ``1/phi(L)``.
    ``L >= 2n - 1`` keeps the first ``n`` values of an FFT product a linear convolution.
    """
    p = len(phi)
    ar = np.asarray(phi[::-1])
    h = np.zeros(n + p)  # p zero pre-sample values
    h[p] = 1.0
    for t in range(p + 1, n + p):
        h[t] = ar @ h[t - p : t]
    L = _fft_length(2 * n - 1)
    return L, np.fft.rfft(np.cumsum(h[p:]), L)


def _resample_chunk(model: SieveModel, prefix: tuple[int, ...], rs) -> np.ndarray:
    """One bootstrap series per replicate number ``r`` of ``rs``, stacked as rows.

    ``eps*_t = w_t * e_t`` with Rademacher ``w`` drawn from the seed
    ``prefix + (r,)``, all rows by one :func:`_rademacher_rows` pass; the differences follow
    ``d*_t = sum_j phi_j d*_{t-j} + eps*_t`` from zero pre-sample values, and
    the level series is their cumulative sum (unit root imposed).  For
    ``p > 0`` that is one FFT convolution ``eps* ⊛ c`` with the cumulated
    impulse response ``c`` of ``1/phi(L)``, exact to rounding relative to the
    largest ``|c_t|``: an explosive sieve (AR root modulus >= 1) loses
    accuracy in its early values.

    Rows are transformed independently, so a row's bits do not depend on the
    other replicates in its chunk, nor on the chunk's size.
    """
    eps = _rademacher_rows(prefix, rs, len(model.residuals))
    eps *= model.residuals
    # the series overwrite their innovations, so the chunk takes no array of its own
    if model.p == 0:
        return np.cumsum(eps, axis=1, out=eps)
    L, kernel = model._kernel
    # a quarter at a time keeps the spectra and padded series, each twice its size, small
    for rows in np.array_split(eps, 4):
        spectrum = np.fft.rfft(rows, L, axis=1)
        spectrum *= kernel
        rows[:] = np.fft.irfft(spectrum, L, axis=1)[:, : rows.shape[1]]
    return eps


def _pvalue(stat: float, replicates: np.ndarray, tail: str, B: int) -> float:
    if tail == "right":
        extreme = int(np.sum(replicates >= stat))
    else:
        extreme = int(np.sum(replicates <= stat))
    return (1.0 + extreme) / (B + 1.0)


def _report(v: np.ndarray, stats: UnitRootStats, B: int, seed_parts: tuple[int, ...]) -> UnitRootReport:
    """The report of the series with values ``v`` and battery ``stats``: no bootstrap at ``B=0``."""
    if B == 0:
        return UnitRootReport(stats, BootstrapResult(p_values={}, B=0, seed=()))
    model = fit_sieve(np.diff(v), stats.lag)
    n = len(model.residuals)
    if n < MIN_BATTERY_LENGTH:
        raise DataError(f"bootstrap series would have {n} observations; need at least {MIN_BATTERY_LENGTH}")
    reps = _battery_rows(B, n, lambda lo, hi: _resample_chunk(model, seed_parts, range(lo + 1, hi + 1)))
    observed = stats.as_dict()
    p_values = {name: _pvalue(observed[name], reps[name], tail, B) for name, tail in STAT_TAILS.items()}
    return UnitRootReport(stats, BootstrapResult(p_values=p_values, B=B, seed=seed_parts))


def _reports(ys, B: int, seeds) -> list[UnitRootReport]:
    """The report of each ``ys[i]`` with seed ``seeds[i]``; the seeds are read
    after ``B`` is checked, and only when ``B > 0``, and every series' values
    are checked before any battery runs.  The observed batteries
    run with one ``_battery_rows`` per length, whose error is that of
    whichever chunk fails first; should one fail, the series run again one
    at a time, in order, so the first failing series raises its own error,
    be it its battery's or its bootstrap's."""
    if B != 0 and B < MIN_REPLICATIONS:
        raise ValueError(f"B must be 0 or >= {MIN_REPLICATIONS}, got {B}")
    seeds = [_seed_tuple(s) for s in seeds] if B else [()] * len(ys)
    values = [_values(y) for y in ys]
    batteries: dict[int, UnitRootStats] = {}
    try:
        for T in dict.fromkeys(map(len, values)):
            rows = [i for i, v in enumerate(values) if len(v) == T]
            out = _battery_rows(len(rows), T, lambda lo, hi: np.stack([values[i] for i in rows[lo:hi]]))
            batteries.update(zip(rows, _stats(out)))
    except (DataError, NumericalError):
        if len(values) == 1:
            raise
        return [_reports([v], B, [s])[0] for v, s in zip(values, seeds)]
    return [_report(v, batteries[i], B, s) for i, (v, s) in enumerate(zip(values, seeds))]


def unit_root_report(y, B: int = DEFAULT_B, seed=0) -> UnitRootReport:
    """Battery plus bootstrap p-values in one pass over the data.

    ``B=0`` gives the battery alone with empty p-values: no sieve is fitted,
    nothing is drawn and ``seed`` is not used.
    """
    return _reports([y], B, [seed])[0]


def unit_root_reports(ys, B: int = DEFAULT_B, seed=0) -> list[UnitRootReport]:
    """``unit_root_report(ys[i], B, seed)`` for every series ``i``, with ``i``
    appended to the seed: ``(seed, i)`` for an int ``seed``.  The observed
    batteries run stacked by length and give each series the bits it gets
    alone; should one fail, the first failing series raises its own error.
    """
    # a generator, so the seed is not read before B is checked, nor at B=0
    return _reports(ys, B, (_seed_tuple(seed) + (i,) for i in range(len(ys))))
