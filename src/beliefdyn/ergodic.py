"""Ergodic coefficients, scrambling/SIA classification, and convergence-rate
certificates.

Whether a product of matrices from a family keeps converging to rank one is
a property of positivity patterns only, so the product questions here are
decided on the finite semigroup of boolean patterns generated by the
family.  Real-valued ergodic coefficients enter only when a numeric rate
base is needed.

Scrambling patterns form a two-sided ideal of that semigroup: when any two
rows of A share a positive column, so do any two rows of B A and of A B
(rows are never empty).  So a word is scrambling as soon as one of its
prefixes is, and the search for a block length ``nu`` at which every word
scrambles needs to extend only the words that do not scramble yet.

Whether any word scrambles at all is decided without that search.  Call
a pair of states merged by a word when their rows of its pattern share a
positive column; a merged pair stays merged when the word is extended on
the right.  The pairs merged by some word are the least fixed point of
``merged |= g @ merged @ g.T`` over the member patterns g, from the
identity, and the fixed point also builds a word (:func:`_merge_pointers`):
each newly merged pair (i, j) points to its member g and to an earlier
merged pair (a, b) with ``g[i, a]`` and ``g[j, b]`` set, so g in front of a
word that merges (a, b) merges (i, j), and following the pointers ends at
a == b.  A scrambling word then exists exactly when every pair is merged
(:func:`exists_scrambling_product`): from the empty word, while two rows
of the word's pattern are disjoint, take a column a of one and b of the
other and append the word that merges (a, b).  Each round merges one more
pair for good, so at most n(n-1)/2 rounds of at most n(n-1)/2 letters
each give a scrambling word.
"""

from itertools import product as iter_product

import numpy as np

from . import chains
from .chains import NotSIAError
from .homogeneous import _limit, evolve
from .stochastic import (_as_family, delta_coefficient, matrix_power,
                         require_square, validate_stochastic)


class BudgetExceededError(RuntimeError):
    """The block-length search or its word enumeration outgrew a fixed cap."""


class NotConvergentFamilyError(ValueError):
    """The family admits products that never become scrambling."""


# cap on the elements of one block temporary in ergodic_coefficient and
# _merge_pointers
_BLOCK_ELEMENTS = 1 << 15
# words a certificate multiplies out, and patterns one length of the nu search keeps
_MAX_WORDS = 200_000


def ergodic_coefficient(p):
    """Minimum row-pair overlap: gamma = min over pairs of sum_j min(p1j, p2j).

    1 - gamma is the contraction coefficient; the matrix is scrambling
    exactly when gamma > 0.  A 1x1 matrix has no pair of rows: gamma is 1.
    """
    # C order, so each overlap is summed pairwise along one contiguous row
    a = np.ascontiguousarray(require_square(p))
    n = a.shape[0]
    half = n // 2
    step = max(1, min(half, _BLOCK_ELEMENTS // (n * n)))    # offsets per block
    # one buffer serves every block; a fresh block per offset would be a
    # new large allocation each time
    later = np.empty((step, n, n), dtype=a.dtype)
    g = 1.0
    for d in range(1, half + 1, step):
        # row i against rows (i + d) mod n, d = 1 .. n // 2, meets every pair
        # once (the pairs n / 2 apart twice, when n is even)
        offsets = np.arange(d, min(d + step, half + 1))
        block = a.take(offsets[:, None] + np.arange(n), axis=0,
                       out=later[:offsets.size], mode="wrap")
        g = min(g, float(np.minimum(a, block, out=block).sum(axis=2).min()))
    return g


def contraction_coefficient(p):
    """1 - ergodic_coefficient(p), below 1 iff p scrambles; public for claim c04."""
    return 1.0 - ergodic_coefficient(p)


def is_scrambling(p):
    """Every two rows overlap; public for claim c12, "scrambling implies SIA"."""
    return ergodic_coefficient(p) > 0.0


def is_sia(p):
    """True when powers of p converge to a rank-one matrix.

    Operationally: exactly one closed class, and that class aperiodic.
    Transient states with no return path do not spoil the limit, so their
    infinite period is ignored here.  ``p`` may be a matrix or a boolean
    positivity pattern.
    """
    analysis = chains.analyze(p)
    return analysis.is_indecomposable and analysis.recurrent_aperiodic


def _pattern_product(a, b):
    """The boolean pattern of ``a @ b``, formed through BLAS.

    numpy's boolean matmul does not use BLAS.  The float32 counts are
    integers no larger than the inner dimension, so they are exact below
    2^24 states.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _pattern_scrambling(pat):
    """Every two rows share a positive column (rows are never empty)."""
    return bool(_pattern_product(pat, pat.T).all())


def _merge_pointers(gens):
    """Back-pointers of the merged-pairs fixed point over the patterns ``gens``.

    Returns three n x n index arrays ``(member, first, second)``: the pair
    (i, j), i != j, is merged by the member ``g = gens[member[i, j]]`` in
    front of any word that merges ``(first[i, j], second[i, j])``, a pair
    merged by an earlier member pass with ``g[i, first]`` and
    ``g[j, second]`` set.  Returns None when some pair is never merged.
    """
    n = gens[0].shape[0]
    chunk = max(n, _BLOCK_ELEMENTS // n)    # new pairs per chunk x n columns
    merged = np.eye(n, dtype=bool)
    member, first, second = (np.zeros((n, n), dtype=np.intp) for _ in range(3))
    k = idle = 0     # idle: member passes in a row that merged nothing
    while not merged.all():
        if idle == len(gens):
            return None
        g = gens[k]
        # reach[i, b]: row i of g holds a state merged with b
        reach = _pattern_product(g, merged)
        rows, cols = np.nonzero(np.triu(_pattern_product(reach, g.T) > merged))
        for s in range(0, rows.size, chunk):
            i, j = rows[s:s + chunk], cols[s:s + chunk]
            b = (reach[i] & g[j]).argmax(axis=1)
            a = (g[i] & merged[b]).argmax(axis=1)
            member[i, j] = member[j, i] = k
            first[i, j], second[i, j] = a, b
            first[j, i], second[j, i] = b, a
        merged[rows, cols] = merged[cols, rows] = True
        idle = 0 if rows.size else idle + 1
        k = (k + 1) % len(gens)
    return member, first, second


def exists_scrambling_product(family):
    """Find a word over the family whose product is scrambling, or None.

    The word is built from the merged-pairs back-pointers (module
    docstring); it is not the shortest one.  A witness needs the
    union-graph condensation to have one leaf, but one leaf is not enough:
    the swap [[0, 1], [1, 0]] has one and only permutation products.
    """
    family = _as_family(family).require_square()
    gens = [m > 0 for m in family.members]
    pointers = _merge_pointers(gens)
    if pointers is None:
        return None
    member, first, second = pointers
    word = []
    pat = np.eye(family.shape[0], dtype=bool)
    while True:
        apart = ~_pattern_product(pat, pat.T)
        if not apart.any():
            return tuple(word)
        i, j = np.unravel_index(apart.argmax(), apart.shape)
        a, b = pat[i].argmax(), pat[j].argmax()
        while a != b:
            k = int(member[a, b])
            word.append(k)
            pat = _pattern_product(pat, gens[k])
            a, b = first[a, b], second[a, b]


def subdominant_modulus(p):
    """Modulus of the second-largest eigenvalue of an SIA matrix: the paper's lambda.

    Strictly below 1 for SIA inputs; 0 for a rank-one matrix; the bench traces it.
    """
    a = require_square(p)
    if not is_sia(a):
        raise NotSIAError("subdominant modulus is defined for SIA matrices")
    return _second_modulus(a)


def _second_modulus(a):
    """Largest eigenvalue modulus once the one closest to 1 is dropped."""
    eigs = np.linalg.eigvals(a)
    rest = np.delete(eigs, int(np.argmin(np.abs(eigs - 1.0))))
    if rest.size == 0:
        return 0.0
    return float(np.max(np.abs(rest)))


def nu_star(n):
    """Worst-case scrambling-block length for n states: (3^n - 2^(n+1) + 1)/2."""
    return (3 ** n - 2 ** (n + 1) + 1) // 2


class RateCertificate:
    """Geometric error certificate: error(n) <= constant * base^floor(n/block).

    ``base`` and ``block`` are derived from spectral/ergodic quantities;
    ``constant_hint`` is an empirical fit from a probe run, not a proven
    constant.  ``per_structure`` keeps the network/concept rates to compare
    the product base against; no decay rate of transient states is kept.
    """

    def __init__(self, kind, base, block=1, constant_hint=None, nu_star=None, witness=None,
                 per_structure=None):
        self.kind = kind              # "homogeneous" | "inhomogeneous"
        self.base = base
        self.block = block
        self.constant_hint = constant_hint
        self.nu_star = nu_star
        self.witness = witness
        self.per_structure = per_structure

    def predicted_bound(self, n):
        c = 1.0 if self.constant_hint is None else self.constant_hint
        return c * self.base ** (n // self.block)


def _slowest_class_modulus(a, analysis):
    """Largest subdominant modulus over the closed classes of ``a``.

    ``analysis`` is ``chains.analyze(a)``.  For an SIA matrix this is its
    subdominant modulus; otherwise each closed class is treated as its own
    chain, the slowest (largest) class rate wins and transients are left out.
    """
    if not analysis.recurrent_aperiodic:
        raise NotSIAError("a periodic closed class has no geometric rate")
    if analysis.is_indecomposable:
        return _second_modulus(a)
    classes = analysis.classes
    # a closed aperiodic class is SIA on its own
    return max(_second_modulus(a[np.ix_(classes[c], classes[c])])
               for c in analysis.leaf_classes)


def _probe_matrix(rows, cols):
    """Fixed full-support stochastic matrix used when no probe M is given."""
    ramp = 1.0 + (np.arange(rows)[:, None] * cols + np.arange(cols)[None, :]) % (cols + 1)
    return ramp / ramp.sum(axis=1, keepdims=True)


def homogeneous_rate_certificate(p, h, m=None, probe_horizon=50):
    """Certificate for the static model: base = lambda_P * lambda_H.

    lambda values are subdominant moduli, taken per closed class (slowest
    wins) when a structure is decomposable.  ``constant_hint`` is fitted as
    the max of error/base^n over a probe evolution against the closed-form
    limit.  The certificate also records both per-structure rates, since
    the combined product base and the slower single-structure rate are two
    different readings of "the model's rate".
    """
    p = require_square(p)
    h = require_square(h)
    p_analysis, h_analysis = chains.analyze(p), chains.analyze(h)
    lam_p = _slowest_class_modulus(p, p_analysis)
    lam_h = _slowest_class_modulus(h, h_analysis)
    base = lam_p * lam_h
    if m is None:
        m = _probe_matrix(p.shape[0], h.shape[0])
    m = validate_stochastic(m, tol=1e-7)
    trace = evolve(p, m, h, probe_horizon, tol=0.0)  # checks m's shape
    limit = _limit(p, p_analysis)[0] @ m @ _limit(h, h_analysis)[0]
    constant = 0.0
    for n in range(1, probe_horizon + 1):
        err = float(np.abs(trace.beliefs[n] - limit).max())
        if base > 0:
            constant = max(constant, err / base ** n)
        elif err > 0:
            constant = max(constant, err)
    return RateCertificate(
        kind="homogeneous",
        base=base,
        block=1,
        constant_hint=constant,
        per_structure={"network": lam_p, "concept": lam_h},
    )


def _scrambling_block(gens, limit):
    """Smallest length at which every word over the patterns ``gens``
    scrambles (1 for one state), or None when a length-``limit`` word does not.

    Each length keeps only its distinct non-scrambling patterns (module
    docstring), at most ``_MAX_WORDS``.  The walk gives up at ``limit``, or
    as soon as a non-scrambling word is longer than the number of distinct
    non-scrambling patterns met so far: two of its prefixes then share a
    pattern, so the part between them can be repeated into non-scrambling
    words of every length.
    """
    level = {g.tobytes(): g for g in gens if not _pattern_scrambling(g)}
    seen = set(level)
    length = 1
    while level:
        if length == limit or length > len(seen):
            return None
        nxt = {}
        for pat in level.values():
            for g in gens:
                new = _pattern_product(pat, g)
                if not _pattern_scrambling(new):
                    nxt[new.tobytes()] = new
                    if len(nxt) > _MAX_WORDS:
                        raise BudgetExceededError(
                            f"pattern semigroup exceeded cap ({len(nxt)} patterns)")
        level = nxt
        seen.update(level)
        length += 1
    return length


def inhomogeneous_rate_certificate(family, nu=None):
    """Certificate for sampled products: error(n) <= (1 - gamma)^floor(n/nu).

    nu (when not given) is the smallest block length at which every word of
    that length over the family has a scrambling pattern; it never needs to
    exceed nu_star(N) = (3^N - 2^(N+1) + 1)/2 (0 for one state, whose block
    is 1).  gamma is then minimized over the real-valued products of all
    words of length nu, at most ``_MAX_WORDS``.  A given nu below 1 raises
    ValueError; a given nu is decided on patterns alone, before any real
    product is formed.
    """
    family = _as_family(family).require_square()
    cap = nu_star(family.shape[0])
    gens = [m > 0 for m in family.members]
    given = nu is not None
    if given and nu < 1:
        raise ValueError(f"nu must be at least 1, got {nu}")
    failure = NotConvergentFamilyError(
        "a length-nu word is not scrambling" if given else
        f"no block length up to nu* = {cap} makes every word scrambling")
    if _merge_pointers(gens) is None:       # no word of any length scrambles
        raise failure
    if not given:
        nu = _scrambling_block(gens, cap)
        if nu is None:
            raise failure
    words = len(family) ** min(nu, 64)      # >= 2 ** 64 past nu = 64, bar one member
    if words > _MAX_WORDS:
        count = words if words < 2 ** 64 else f"{len(family)}^{nu}"
        raise BudgetExceededError(f"{count} words of length {nu} exceed "
                                  f"the cap of {_MAX_WORDS} words")
    # no length holds more patterns than words, so this walk stays in budget
    if given and _scrambling_block(gens, nu) is None:
        raise failure
    gamma = 1.0
    witness = None
    for word in iter_product(range(len(family)), repeat=nu):
        prod = family.members[word[0]]
        for idx in word[1:]:
            prod = prod @ family.members[idx]
        g = ergodic_coefficient(prod)
        if g < gamma:
            gamma = g
            witness = word
    return RateCertificate(
        kind="inhomogeneous",
        base=1.0 - gamma,
        block=int(nu),
        constant_hint=1.0,
        nu_star=cap,
        witness=witness,
    )


def power_contraction_holds(p, n, k):
    """Check delta(p^n) <= lambda(p^k)^floor(n/k) for SIA p with p^k scrambling:
    public as the block-rate inequality a sound static rate bound builds on."""
    pk = matrix_power(p, k)
    lam = contraction_coefficient(pk)
    if lam >= 1.0:
        raise NotSIAError(f"p^{k} is not scrambling")
    return delta_coefficient(matrix_power(p, n)) <= lam ** (n // k) + 1e-12
