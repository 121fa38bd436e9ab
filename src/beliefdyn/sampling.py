"""Randomly changing structures: i.i.d. sampling of network and concept
matrices from weighted families.

Each step left-multiplies beliefs by a freshly drawn network matrix and
right-multiplies by a freshly drawn concept matrix:

    Q_t = P_t Q_{t-1} H_t,   P_t ~ sp,  H_t ~ sh.

Runs are reproducible: the network and concept index sequences come from
two independent sub-streams of one :class:`~beliefdyn.rng.Xoshiro256StarStar`
seed, so a given (seed, families, horizon) triple always yields the same
words and the same final beliefs, bit for bit.

:func:`sample_trajectories` advances many seeds together on one
``(seeds, people, concepts)`` stack of beliefs.  One generator carries every
seed's network and concept streams as lanes and draws the words ahead in
blocks of steps.  Each family is one stack of its members: a step gathers
every lane's drawn member at once, in chunks of lanes only past a byte cap,
and a stacked ``matmul`` runs every lane's ``(P_t @ Q) @ H_t`` as the same
2-D products a single-seed run computes, so a seed's words, final beliefs
and stabilization step do not depend on which other seeds run beside it.
A lane can stabilize at a step only if its entry ``(0, 0)`` moved by less
than ``tol``, so the full max-norm test runs only on steps where some lane
passes that one-entry gate.
"""

import numpy as np

from .ergodic import exists_scrambling_product
from .homogeneous import _society, _stopping_rule, limit_q
from .rng import CONCEPT_STREAM, NETWORK_STREAM, Xoshiro256StarStar, weighted_index
from .stochastic import _as_family


_BLOCK = 32                 # steps of words drawn per generator call
_GATHER_BYTES = 1 << 20     # byte cap on one gather: 128 members of 32 x 32


class SampledRun:
    """One seeded trajectory: the words actually drawn and the final beliefs."""

    def __init__(self, seed, word_p, word_h, final_q, stabilized_at=None):
        self.seed = seed
        self.word_p = word_p
        self.word_h = word_h
        self.final_q = final_q
        self.stabilized_at = stabilized_at


class ConvergenceDiagnosis:
    def __init__(self, almost_surely_rank_one, witness=None):
        self.almost_surely_rank_one = almost_surely_rank_one
        self.witness = witness    # scrambling word over the family, when one exists


def sample_trajectories(sp, sh, m, seeds, steps, tol=1e-9):
    """Run one i.i.d.-sampled trajectory per seed, all seeds together.

    Parameters
    ----------
    sp, sh : MatrixFamily or sequence of array_like
        Families (or their members) for the network and concept structures.
    m : array_like
        Initial beliefs, rows = people, columns = concepts.
    seeds : sequence of int
        64-bit reproducibility seeds, one lane each.
    steps : int
        Horizon, an integer of at least 0; every run executes all of it.
    tol : float
        Stabilization marker threshold on successive max-norm differences;
        0 marks nothing, and a negative or NaN tol raises ValueError.

    Returns an iterator of one :class:`SampledRun` per seed, in order, after
    checking every input at the call; a run's words become tuples only as it
    is taken.  Each run is bit for bit the one a single-seed run produces:
    the generator lanes draw each seed's own words, and every lane's step is
    ``(P_t @ Q) @ H_t`` as a 2-D product.
    """
    horizon = _stopping_rule(steps, tol)
    sp, m, sh = _society(_as_family(sp), m, _as_family(sh))
    return _lanes(sp, sh, m, [int(s) for s in seeds], horizon, tol)


def _lanes(sp, sh, m, seeds, horizon, tol):
    """:func:`sample_trajectories` on checked inputs, as a generator."""
    if not seeds:
        return
    lanes = len(seeds)
    rng = Xoshiro256StarStar(seeds * 2, [NETWORK_STREAM] * lanes + [CONCEPT_STREAM] * lanes)
    words_p = np.empty((horizon, lanes), np.min_scalar_type(len(sp) - 1))
    words_h = np.empty((horizon, lanes), np.min_scalar_type(len(sh) - 1))
    plans = []     # per family: (member stack, lane slice, gather buffer) per chunk
    for family in (sp, sh):
        stack = np.array(family.members)
        size = min(lanes, max(1, _GATHER_BYTES // stack[0].nbytes))
        gather = np.empty((size,) + stack.shape[1:])
        plans.append([(stack, slice(a, a + size), gather[:min(size, lanes - a)])
                      for a in range(0, lanes, size)])
    q = np.repeat(m[None], lanes, axis=0)
    mid, nxt = np.empty_like(q), np.empty_like(q)
    stabilized = np.zeros(lanes, dtype=int)      # 0 = not yet
    track = tol > 0
    for t in range(horizon):
        if t % _BLOCK == 0:
            u = rng.next_floats(min(_BLOCK, horizon - t))
            words_p[t:t + len(u)] = weighted_index(sp.weights, u[:, :lanes])
            words_h[t:t + len(u)] = weighted_index(sh.weights, u[:, lanes:])
        # mode="wrap" lets take write straight into the gather buffer
        for stack, chunk, gather in plans[0]:
            members = stack.take(words_p[t, chunk], axis=0, out=gather, mode="wrap")
            np.matmul(members, q[chunk], out=mid[chunk])
        for stack, chunk, gather in plans[1]:
            members = stack.take(words_h[t, chunk], axis=0, out=gather, mode="wrap")
            np.matmul(mid[chunk], members, out=nxt[chunk])
        if track and (np.abs(nxt[:, 0, 0] - q[:, 0, 0]) < tol).any():
            diff = np.abs(nxt - q).max(axis=(1, 2))
            stabilized[(stabilized == 0) & (diff < tol)] = t + 1
            track = not stabilized.all()
        q, nxt = nxt, q
    for k, seed in enumerate(seeds):
        yield SampledRun(seed, tuple(words_p[:, k].tolist()),
                         tuple(words_h[:, k].tolist()), q[k].copy(),
                         int(stabilized[k]) or None)


def sample_trajectory(sp, sh, m, seed, steps):
    """Run one i.i.d.-sampled trajectory: :func:`sample_trajectories` on one seed."""
    return next(sample_trajectories(sp, sh, m, [seed], steps))


def diagnose_convergence(family):
    """Almost-sure consensus test for products drawn from one family.

    Sampled products collapse to rank one with probability one exactly when
    some finite word over the family is scrambling; that witness word is
    reported.  One boolean fixed point decides whether it exists and builds
    it, in polynomial time
    (:func:`~beliefdyn.ergodic.exists_scrambling_product`).
    """
    witness = exists_scrambling_product(family)
    return ConvergenceDiagnosis(witness is not None, witness)


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
    exist per-run.  ``m`` is checked as :func:`~beliefdyn.homogeneous.limit_q` checks it.
    """
    return limit_q(expectation_matrix(sp), m, expectation_matrix(sh)).limit
