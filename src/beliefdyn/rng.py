"""Seeded, portable random number generation for reproducible sampling runs.

The generator is xoshiro256** seeded through SplitMix64, implemented on
64-bit integer arithmetic only.  Two runs with the same seed produce the
same draws on any platform and in any language that follows this recipe:

seeding
    state0 = seed XOR (stream * 0x9E3779B97F4A7C15), truncated to 64 bits.
    Four successive SplitMix64 outputs from ``state0`` form the xoshiro
    state word s[0..3] (all-zero states are bumped to s[0] = 1).

streams
    Independent subsequences are derived by changing ``stream`` while the
    seed stays fixed.  The network-structure sampler uses stream 1 and the
    concept-structure sampler uses stream 2, so adding concept sampling to
    a run never perturbs the network draws.  ``stream`` may also give one
    stream per lane, so one generator carries both: the sampler's lanes are
    every seed's network stream followed by every seed's concept stream.

floats and index draws
    ``next_floats(count)`` draws the next ``count`` uniforms of every lane as
    one ``(count, lanes)`` array; each takes the top 53 bits of the lane's
    next output, giving a uniform double in [0, 1).  ``next_index(weights)``
    inverts the running sum of the weights at the next uniform, and
    :func:`weighted_index` inverts a whole block with one ``searchsorted``.

lanes
    One generator advances many (seed, stream) pairs at once: its state is
    four numpy ``uint64`` arrays with one lane per pair.  Wrapping multiply,
    shift and xor are exact on ``uint64``, so every lane draws bit for bit
    what a generator seeded with that lane's seed and stream alone would
    draw.  Seeds and stream offsets are reduced modulo 2^64 as Python
    integers first, so negative and oversized seeds keep their meaning.  A
    generator built from a scalar seed is one lane, and its ``next_uint64``
    and ``next_index`` return Python scalars; one built from a sequence of
    seeds returns one array entry per lane.
"""

import numpy as np

MASK64 = (1 << 64) - 1

NETWORK_STREAM = 1
CONCEPT_STREAM = 2

# shift and multiplier operands as uint64 scalars: a Python int operand
# costs a conversion on every lane operation
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 27, 30, 31, 45, 57)}


def _splitmix64(state):
    """One SplitMix64 step on uint64 lanes; returns (new_state, output)."""
    state = np.array(state, dtype=np.uint64, ndmin=1) + _GOLDEN
    z = (state ^ (state >> _U[30])) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U[27])) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> _U[31])


def _rotl(x, k):
    return (x << _U[k]) | (x >> _U[64 - k])


def _nonzero_state(s):
    """Bump lanes whose four state words are all zero to s[0] = 1.

    The all-zero state is a fixed point of xoshiro, so it must never be used.
    """
    s[0][(s[0] | s[1] | s[2] | s[3]) == 0] = 1
    return s


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seeding and numbered sub-streams.

    ``seed`` is one integer or a sequence of integers, one lane each;
    ``stream`` is one integer or one per lane.
    """

    def __init__(self, seed, stream=0):
        self._scalar = np.ndim(seed) == 0
        seeds = np.ravel(np.asarray(seed, dtype=object))
        streams = np.broadcast_to(np.asarray(stream, dtype=object), seeds.shape)
        state = [(int(s) ^ int(k) * 0x9E3779B97F4A7C15) & MASK64 for s, k in zip(seeds, streams)]
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = _nonzero_state(s)

    def _lanes(self, values):
        return values.item() if self._scalar else values

    def _next_uint64(self):
        s = self._s
        result = _rotl(s[1] * _U[5], 7) * _U[9]
        t = s[1] << _U[17]
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_uint64(self):
        """The next raw output: the reproducibility recipe's reference draw."""
        return self._lanes(self._next_uint64())

    def next_floats(self, count):
        """The next ``count`` uniforms of every lane, one row per draw."""
        bits = np.empty((count, self._s[0].size), np.uint64)
        for row in bits:
            row[...] = self._next_uint64()
        return (bits >> _U[11]).astype(np.float64) * 2.0 ** -53

    def next_index(self, weights):
        """Draw an index per lane according to a sequence of positive weights."""
        return self._lanes(weighted_index(weights, self.next_floats(1)[0]))


def weighted_index(weights, u):
    """Index per uniform in ``u`` according to positive, unnormalized weights.

    Each draw inverts the running sum of the weights (left to right) at
    ``u`` times their total.
    """
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)
