"""Randomly changing structures: i.i.d. sampling of network and concept
matrices from weighted families.

Each step left-multiplies beliefs by a freshly drawn network matrix and
right-multiplies by a freshly drawn concept matrix:

    Q_t = P_t Q_{t-1} H_t,   P_t ~ sp,  H_t ~ sh.

Runs are reproducible: the network and concept index sequences come from
two independent sub-streams of one :class:`~beliefdyn.rng.Xoshiro256StarStar`
seed, so a given (seed, families, horizon) triple always yields the same
words and the same final beliefs, bit for bit.

:func:`sample_trajectories` advances many seeds together: one generator
lane per seed and one ``(seeds, people, concepts)`` stack of beliefs.  Each
step multiplies the lanes that drew the same member in one stacked
``matmul``, which computes every lane's ``(P_t @ Q) @ H_t`` as the same 2-D
products a single-seed run computes, so a seed's words, final beliefs and
stabilization step do not depend on which other seeds run beside it.
"""

from dataclasses import dataclass

import numpy as np

from .chains import one_leaf_connected
from .ergodic import exists_scrambling_product
from .homogeneous import limit_q
from .rng import CONCEPT_STREAM, NETWORK_STREAM, Xoshiro256StarStar
from .stochastic import (DimensionMismatchError, MatrixFamily, as_matrix,
                         validate_stochastic)


@dataclass
class SampledRun:
    """One seeded trajectory: the words actually drawn and the final beliefs."""

    seed: int
    horizon: int
    word_p: tuple
    word_h: tuple
    final_q: np.ndarray
    stabilized_at: int = None


@dataclass
class ConvergenceDiagnosis:
    almost_surely_rank_one: bool
    witness: tuple = None     # scrambling word over the family, when one exists


def _as_family(f):
    return f if isinstance(f, MatrixFamily) else MatrixFamily(f)


def _apply(members, word, stack, left):
    """Multiply each lane of ``stack`` by the member its ``word`` entry names.

    Lanes that drew the same member go through one stacked ``matmul``, which
    runs one 2-D product per lane, so each lane's product is the one a
    single-seed run computes.
    """
    out = np.empty_like(stack)
    for k, member in enumerate(members):
        lanes = np.flatnonzero(word == k)
        if lanes.size == len(word):
            return member @ stack if left else stack @ member
        if lanes.size:
            out[lanes] = member @ stack[lanes] if left else stack[lanes] @ member
    return out


def sample_trajectories(sp, sh, m, seeds, steps, tol=1e-9):
    """Run one i.i.d.-sampled trajectory per seed, all seeds together.

    Parameters
    ----------
    sp, sh : MatrixFamily
        Families for the network and concept structures (members square).
    m : array_like
        Initial beliefs, rows = people, columns = concepts.
    seeds : sequence of int
        64-bit reproducibility seeds, one lane each.
    steps : int
        Horizon; every run executes the full horizon.
    tol : float
        Stabilization marker threshold on successive max-norm differences.

    Yields one :class:`SampledRun` per seed, in order.  Each run is bit for
    bit the one a single-seed run produces: the generator lanes draw each
    seed's own words, and every lane's step is ``(P_t @ Q) @ H_t`` as a 2-D
    product.
    """
    sp = _as_family(sp).require_square()
    sh = _as_family(sh).require_square()
    m = validate_stochastic(m, tol=1e-7)
    if m.shape != (sp.shape[0], sh.shape[0]):
        raise DimensionMismatchError(
            f"beliefs {m.shape} incompatible with families {sp.shape} / {sh.shape}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        return
    rng_p = Xoshiro256StarStar(seeds, stream=NETWORK_STREAM)
    rng_h = Xoshiro256StarStar(seeds, stream=CONCEPT_STREAM)
    horizon = max(steps, 0)
    words_p = np.empty((horizon, len(seeds)), np.min_scalar_type(len(sp) - 1))
    words_h = np.empty((horizon, len(seeds)), np.min_scalar_type(len(sh) - 1))
    q = np.repeat(m[None], len(seeds), axis=0)
    stabilized = np.zeros(len(seeds), dtype=int)      # 0 = not yet
    track = tol > 0
    for t in range(1, horizon + 1):
        words_p[t - 1] = rng_p.next_index(sp.weights)
        words_h[t - 1] = rng_h.next_index(sh.weights)
        nxt = _apply(sh.members, words_h[t - 1],
                     _apply(sp.members, words_p[t - 1], q, left=True), left=False)
        if track:
            diff = np.abs(nxt - q).max(axis=(1, 2))
            stabilized[(stabilized == 0) & (diff < tol)] = t
            track = not stabilized.all()
        q = nxt
    for k, seed in enumerate(seeds):
        yield SampledRun(seed, steps, tuple(words_p[:, k].tolist()),
                         tuple(words_h[:, k].tolist()), q[k].copy(),
                         int(stabilized[k]) or None)


def sample_trajectory(sp, sh, m, seed, steps, tol=1e-9):
    """Run one i.i.d.-sampled trajectory: :func:`sample_trajectories` on one seed."""
    return next(sample_trajectories(sp, sh, m, [seed], steps, tol))


def diagnose_convergence(family, max_patterns=100_000):
    """Almost-sure consensus test for products drawn from one family.

    Sampled products collapse to rank one with probability one exactly when
    the condensation of the family's union graph is connected with a single
    leaf; equivalently, when some finite word over the family is
    scrambling.  The witness word is reported when it exists.
    """
    family = _as_family(family).require_square()
    ok = one_leaf_connected(family)
    witness = exists_scrambling_product(family, max_patterns) if ok else None
    return ConvergenceDiagnosis(ok, witness)


def expectation_matrix(family):
    """Weight-averaged member: the one-step expected transition matrix."""
    family = _as_family(family)
    out = np.zeros(family.shape)
    for w, m in zip(family.weights, family.members):
        out += w * m
    return out


def expected_limit(sp, sh, m):
    """Limit of the expected dynamics: lim (E P)^n M (E H)^n.

    Because the draws are independent across time, the expectation of the
    sampled product equals the product of expectations, so this is also the
    expectation of the (random) limiting beliefs whenever those limits
    exist per-run.
    """
    sp = _as_family(sp)
    sh = _as_family(sh)
    m = as_matrix(m)
    return limit_q(expectation_matrix(sp), m, expectation_matrix(sh)).limit
