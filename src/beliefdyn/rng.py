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
    a run never perturbs the network draws.

floats and index draws
    ``next_float`` takes the top 53 bits of the next output, giving a
    uniform double in [0, 1).  ``next_index(weights)`` inverts the running
    sum of the weights at that uniform.

lanes
    One generator advances many seeds at once: its state is four numpy
    ``uint64`` arrays with one lane per seed.  Wrapping multiply, shift and
    xor are exact on ``uint64``, so every lane draws bit for bit what a
    generator seeded with that lane's seed alone would draw.  Seeds and
    stream offsets are reduced modulo 2^64 as Python integers first, so
    negative and oversized seeds keep their meaning.  A generator built
    from a scalar seed is one lane and returns Python scalars; one built
    from a sequence of seeds returns one array entry per lane.
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

    ``seed`` is one integer or a sequence of integers, one lane each.
    """

    def __init__(self, seed, stream=0):
        self._scalar = np.ndim(seed) == 0
        offset = (int(stream) * 0x9E3779B97F4A7C15) & MASK64
        state = [(int(s) ^ offset) & MASK64 for s in np.ravel(np.asarray(seed, dtype=object))]
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

    def _next_float(self):
        return (self._next_uint64() >> _U[11]).astype(np.float64) * 2.0 ** -53

    def next_uint64(self):
        return self._lanes(self._next_uint64())

    def next_float(self):
        return self._lanes(self._next_float())

    def next_index(self, weights):
        """Draw an index per lane according to a sequence of positive weights.

        The weights need not be normalized; the draw inverts their running
        sum (accumulated left to right) at a single uniform variate, so the
        outcome is a deterministic function of the generator state and the
        weight values.
        """
        cum = np.cumsum(np.asarray(weights, dtype=float))
        u = self._next_float() * cum[-1]
        return self._lanes(np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1))
