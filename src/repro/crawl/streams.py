"""How a crawl attempt's random generators are seeded.

Every visit attempt draws its visit stream, and every retry its jitter
stream, from a generator of its own, seeded by the entropy words
``[seed, stream, rank, visit_index, attempt]``.  :func:`reference_rng`
is that generator as NumPy builds it, ``np.random.default_rng`` of the
list, so a record depends on its own words only: never on crawl order,
sharding or resumption.

:class:`AttemptStreams` returns the same generators (the same PCG64
state, the same draws) for about an eighth of the cost.  NumPy spends
most of a ``default_rng`` call on per-call overhead around a five-word
hash: building a ``SeedSequence`` and asking it for PCG64's four seed
words.  Here a private transcription of ``SeedSequence``'s pool mixing
and ``generate_state`` computes those words for a whole block of lanes
in one pass of NumPy arithmetic: both streams, every visit index, every
attempt and :data:`BLOCK_RANKS` consecutive ranks.  Each attempt then
gets a fresh ``Generator(PCG64(seed))``, where ``seed`` is an
``ISeedSequence`` that hands PCG64 its lane's words.  The block is
chosen by the requested rank alone, so nothing reads ahead in the
population; a request outside the current block replaces it.  A word
outside ``[0, 2**32)`` (a seed of 2**32 and up, a negative, a float)
goes to :func:`reference_rng`, which NumPy widens or refuses as it
always has.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: Sub-stream tags keeping visit and jitter draws on disjoint streams.
VISIT_STREAM = 0x51
JITTER_STREAM = 0x52

#: Consecutive ranks whose seed words are computed together.
BLOCK_RANKS = 64

#: NumPy reads a non-negative int below this bound as one uint32 word.
_WORD_LIMIT = 2**32

#: Block axis 0: the stream tags, in lane order.
_STREAMS = (VISIT_STREAM, JITTER_STREAM)
_STREAM_AXIS = {stream: axis for axis, stream in enumerate(_STREAMS)}

# ``numpy.random.SeedSequence``'s constants (NumPy's bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) pairs of ``count`` consecutive hash steps.

    ``SeedSequence`` xors each word with a running hash constant,
    advances the constant by ``mult`` and multiplies the word by it.
    The constant never depends on the data, so every step's pair is
    fixed."""
    steps = []
    constant = init
    for _ in range(count):
        advanced = (constant * mult) % _WORD_LIMIT
        steps.append((np.uint32(constant), np.uint32(advanced)))
        constant = advanced
    return tuple(steps)


#: Five entropy words into a four-word pool: four steps fill the pool,
#: twelve mix every word into every other, four mix in the fifth word.
_POOL_STEPS = _hash_steps(_INIT_A, _MULT_A, 20)
#: ``generate_state(4, np.uint64)`` draws eight uint32 words.
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _block_words(
    seed: int, first_rank: int, visit_indices: int, attempts: int
) -> np.ndarray:
    """``SeedSequence([seed, stream, rank, visit_index, attempt])
    .generate_state(4, np.uint64)`` for every lane of one block.

    The result has the shape ``(2, ranks, visit_indices, attempts, 4)``,
    axis 0 in :data:`_STREAMS` order and axis 1 counting ranks from
    ``first_rank``; it is read-only.  Each entropy word lives on an axis
    of its own, so the early steps, which have mixed in only some of the
    words, run on the small arrays they broadcast from.
    """
    last_rank = min(first_rank + BLOCK_RANKS, _WORD_LIMIT)
    words = (
        np.full((1, 1, 1, 1), seed, dtype=np.uint32),
        np.array(_STREAMS, dtype=np.uint32).reshape(-1, 1, 1, 1),
        np.arange(first_rank, last_rank, dtype=np.uint32).reshape(1, -1, 1, 1),
        np.arange(visit_indices, dtype=np.uint32).reshape(1, 1, -1, 1),
        np.arange(attempts, dtype=np.uint32).reshape(1, 1, 1, -1),
    )
    steps = iter(_POOL_STEPS)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    lanes = np.broadcast_shapes(*(word.shape for word in words))
    state = np.empty(lanes + (2 * _POOL_SIZE,), dtype=np.uint32)
    for index, (xor, mult) in enumerate(_STATE_STEPS):
        value = (pool[index % _POOL_SIZE] ^ xor) * mult
        state[..., index] = value ^ (value >> _XSHIFT)
    # Pairs of uint32 words read as little-endian uint64s, as
    # ``generate_state`` does, then in native order for PCG64.
    block = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    block.flags.writeable = False
    return block


class _AttemptSeed(ISeedSequence):
    """One attempt's PCG64 seed words: what the ``SeedSequence`` of
    :func:`reference_rng` would generate for PCG64.

    ``PCG64`` asks once for ``generate_state(4, np.uint64)`` and reads
    the returned buffer as raw memory, so the answer is always a
    C-contiguous native ``uint64`` row of four words; any other request
    is refused.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if type(n_words) is not int or n_words != 4 or dtype is not np.uint64:
            raise ValueError(
                "an attempt's seed answers only generate_state(4, np.uint64), "
                f"not generate_state({n_words!r}, {dtype!r})"
            )
        return self._words


def reference_rng(
    seed: int, stream: int, rank: int, visit_index: int, attempt: int
) -> np.random.Generator:
    """``np.random.default_rng([seed, stream, rank, visit_index, attempt])``."""
    return np.random.default_rng([seed, stream, rank, visit_index, attempt])


class AttemptStreams:
    """One crawl's attempt generators, seeded a block of ranks at a time.

    ``visit_indices`` and ``attempts`` are the crawl's instance count and
    attempt budget: a block holds every lane below them.  The block
    (2 x 64 x 8 x 4 rows of 32 bytes, 128 KiB, for the paper's crawl)
    lives only as long as this object, and each generator only as long
    as its attempt.
    """

    def __init__(self, seed: int, visit_indices: int, attempts: int) -> None:
        self.seed = seed
        self.visit_indices = visit_indices
        self.attempts = attempts
        self._seed_is_word = type(seed) is int and 0 <= seed < _WORD_LIMIT
        self._first_rank: Optional[int] = None
        self._words: Optional[np.ndarray] = None

    def rng(
        self, stream: int, rank: int, visit_index: int, attempt: int
    ) -> np.random.Generator:
        """``reference_rng(seed, stream, rank, visit_index, attempt)``:
        the same state and draws, from the block's seed words when the
        request is one of its lanes."""
        axis = _STREAM_AXIS.get(stream) if type(stream) is int else None
        if (
            axis is None
            or not self._seed_is_word
            or type(rank) is not int
            or not 0 <= rank < _WORD_LIMIT
            or type(visit_index) is not int
            or not 0 <= visit_index < self.visit_indices
            or type(attempt) is not int
            or not 0 <= attempt < self.attempts
        ):
            return reference_rng(self.seed, stream, rank, visit_index, attempt)
        first_rank = rank - rank % BLOCK_RANKS
        if first_rank != self._first_rank:
            self._words = _block_words(
                self.seed, first_rank, self.visit_indices, self.attempts
            )
            self._first_rank = first_rank
        words = self._words[axis, rank - first_rank, visit_index, attempt]
        return np.random.Generator(np.random.PCG64(_AttemptSeed(words)))
