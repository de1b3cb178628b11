"""Random number generator plumbing.

All stochastic code in the library accepts a ``seed`` argument that may be
``None`` (non-deterministic), an integer, or an already constructed
:class:`numpy.random.Generator`.  Funneling everything through
:func:`ensure_rng` keeps experiments reproducible: every generator,
workload, and simulation records the seed it was built from.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, or an existing
        ``Generator`` (returned unchanged so callers can share state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, unit_index: int) -> int:
    """Deterministic per-unit seed for work unit ``unit_index`` of a grid.

    Mixes ``(base_seed, unit_index)`` through
    :class:`numpy.random.SeedSequence`, so the seed of a unit depends
    only on the base seed and the unit's position in the *full* grid —
    never on how many units ran before it.  Shard ``(i, n)`` of a sweep
    therefore draws exactly the per-unit seeds the unsharded run draws,
    which is what makes shard unions bit-identical to single-machine
    runs (see :mod:`repro.experiments`).

    Seeds are 64-bit: at the 32 bits ``generate_state`` defaults to,
    birthday collisions appear around 10⁴–10⁵ units (two cells silently
    drawing identical instances); at 64 bits a billion-unit grid stays
    collision-free in expectation.

    >>> derive_seed(0, 0) == derive_seed(0, 0)
    True
    >>> derive_seed(0, 1) != derive_seed(0, 2)
    True
    """
    if unit_index < 0:
        raise ValueError(f"unit_index must be nonnegative, got {unit_index}")
    entropy = (int(base_seed) % (1 << 64), int(unit_index))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def spawn_rngs(seed: "int | np.random.Generator | None", count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from a single seed.

    Uses :class:`numpy.random.SeedSequence` spawning so that streams are
    statistically independent, which matters when parallel experiment
    arms must not share randomness.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing seeds from the parent generator.
        return [np.random.default_rng(seed.integers(0, 2**63 - 1)) for _ in range(count)]
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


#: ``2⁻⁵³``: numpy's scale from a 53-bit integer to a double in ``[0, 1)``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


class RawDraws:
    """Scalar :class:`numpy.random.Generator` draws replayed over raw words.

    One :meth:`~numpy.random.BitGenerator.random_raw` block of 64-bit
    PCG64 words replaces thousands of scalar ``Generator`` calls: each
    method below consumes words at a cursor exactly as the same-named
    ``Generator`` method consumes them, and returns the same value.
    numpy's conversion rules (``Generator`` on ``PCG64``):

    - ``random()`` takes one word ``w`` and returns ``(w >> 11)·2⁻⁵³``;
    - ``uniform(lo, hi)`` returns ``lo + (hi − lo)·random()``;
    - ``integers(0, n)`` with ``n == 1`` draws **nothing** and returns 0;
      otherwise it takes 32-bit draws and applies Lemire's
      multiply-shift, rejecting while the low 32 bits of ``x·n`` fall
      below ``(2³² − n) mod n``.  A 32-bit draw returns the half-word
      PCG64 buffered, if any; else it takes a fresh word, returns its
      low half and buffers its high half.  64-bit draws (``random``,
      ``uniform``) never touch that buffer.

    The block is extended from the generator whenever a draw would run
    past its end, so a size hint that proves too small costs only an
    extra ``random_raw`` call.  The generator's own state is advanced
    by whole blocks, not by what the cursor consumed, so it must not be
    used for anything else afterwards.

    >>> rng = np.random.default_rng(7)
    >>> draws = RawDraws(np.random.default_rng(7), 8)
    >>> [rng.integers(0, 5), rng.random(), rng.uniform(2.0, 3.0)] == [
    ...     draws.integers(5), draws.random(), draws.uniform(2.0, 3.0)]
    True
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"RawDraws replays PCG64 only, got {type(bitgen).__name__}")
        state = bitgen.state
        self._bitgen = bitgen
        # PCG64's buffered 32-bit half-word, if any.
        self._half = int(state["uinteger"]) if state["has_uint32"] else None
        self._words = bitgen.random_raw(max(int(size), 1))
        self._pos = 0
        self._doubles: "np.ndarray | None" = None
        self._below: "dict[float, list[bool]]" = {}

    def _reserve(self, count: int) -> None:
        """Make at least ``count`` words available past the cursor."""
        short = self._pos + count - len(self._words)
        if short > 0:
            extra = self._bitgen.random_raw(max(short, len(self._words)))
            self._words = np.concatenate([self._words, extra])
            self._doubles = None
            self._below.clear()

    def _block_doubles(self) -> np.ndarray:
        """Every word of the block as ``random()`` would return it."""
        if self._doubles is None:
            top53 = (self._words >> np.uint64(11)).astype(np.float64)
            self._doubles = top53 * _DOUBLE_SCALE
        return self._doubles

    def _word(self) -> int:
        self._reserve(1)
        word = int(self._words[self._pos])
        self._pos += 1
        return word

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._word() >> 11) * _DOUBLE_SCALE

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)``."""
        return low + (high - low) * self.random()

    def uniform_at(self, positions: np.ndarray, low: float, high: float) -> np.ndarray:
        """``uniform(low, high)`` of the words at ``positions``, vectorized.

        Reads words the cursor has already passed (see :meth:`gated`);
        the arithmetic is :meth:`uniform`'s, so the floats are the same.
        """
        return low + (high - low) * self._block_doubles()[positions]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``1 <= n < 2**32``."""
        if not 1 <= n < 1 << 32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0
        product = self._uint32() * n
        if (product & 0xFFFFFFFF) < n:
            threshold = ((1 << 32) - n) % n
            while (product & 0xFFFFFFFF) < threshold:
                product = self._uint32() * n
        return product >> 32

    def gated(self, count: int, p: float) -> "tuple[list[int], list[int]]":
        """``count`` rounds of ``if random() < p: <one more 64-bit draw>``.

        Returns the rounds whose test passed and the word position of
        each one's second draw, which the caller converts with
        :meth:`uniform_at`.  The cursor ends after the last word used.
        """
        self._reserve(2 * count)
        below = self._below.get(p)
        if below is None:
            below = self._below[p] = (self._block_doubles() < p).tolist()
        rounds: "list[int]" = []
        seconds: "list[int]" = []
        pos = self._pos
        for r in range(count):
            if below[pos]:
                rounds.append(r)
                seconds.append(pos + 1)
                pos += 2
            else:
                pos += 1
        self._pos = pos
        return rounds, seconds
