"""Ergodic coefficients, scrambling/SIA classification, and convergence-rate
certificates.

Whether a product of matrices from a family keeps converging to rank one is
a property of positivity patterns only, so the product questions here are
decided on the finite semigroup of boolean patterns generated by the
family.  Real-valued ergodic coefficients enter only when a numeric rate
base is needed.
"""

from dataclasses import dataclass
from itertools import combinations, product as iter_product

import numpy as np

from . import chains
from .stochastic import (MatrixFamily, NotSquareError, delta_coefficient,
                         matrix_power, require_square)


class TooSmallError(ValueError):
    """The operation needs at least two rows."""


class NotSIAError(ValueError):
    """The matrix is not stochastic-indecomposable-aperiodic."""


class BudgetExceededError(RuntimeError):
    """Pattern-semigroup exploration outgrew its configured cap."""

    def __init__(self, pattern_count):
        self.pattern_count = pattern_count
        super().__init__(f"pattern semigroup exceeded cap ({pattern_count} patterns)")


class NotConvergentFamilyError(ValueError):
    """The family admits products that never become scrambling."""


def ergodic_coefficient(p):
    """Minimum row-pair overlap: gamma = min over pairs of sum_j min(p1j, p2j).

    1 - gamma is the contraction coefficient; the matrix is scrambling
    exactly when gamma > 0.
    """
    a = require_square(p)
    n = a.shape[0]
    if n < 2:
        raise TooSmallError("ergodic coefficient needs at least a 2x2 matrix")
    g = 1.0
    for i in range(n - 1):
        # overlaps of row i with every later row, each summed as its own row
        g = min(g, float(np.minimum(a[i], a[i + 1:]).sum(axis=1).min()))
    return g


def contraction_coefficient(p):
    """1 - ergodic_coefficient(p); strictly below 1 iff p is scrambling."""
    return 1.0 - ergodic_coefficient(p)


def is_scrambling(p):
    return ergodic_coefficient(p) > 0.0


def is_sia(p):
    """True when powers of p converge to a rank-one matrix.

    Operationally: exactly one closed class, and that class aperiodic.
    Transient states with no return path do not spoil the limit, so their
    infinite period is ignored here.
    """
    analysis = chains.analyze(require_square(p))
    return analysis.is_indecomposable and analysis.recurrent_aperiodic


def _pattern(m, threshold=0.0):
    return np.asarray(m) > threshold


def _pattern_key(pat):
    return pat.tobytes()


def _pattern_sia(pat):
    analysis = chains.analyze_pattern(pat)
    return analysis.is_indecomposable and analysis.recurrent_aperiodic


def _pattern_scrambling(pat):
    n = pat.shape[0]
    for i, j in combinations(range(n), 2):
        if not np.any(pat[i] & pat[j]):
            return False
    return True


def _explore_patterns(family, max_patterns):
    """Breadth-first closure of the family's patterns under boolean product.

    Yields (word, pattern) in (length, lexicographic) order, each pattern
    once, so any witness extracted from the stream is canonical.
    """
    family.require_square()
    gens = [_pattern(m) for m in family.members]
    seen = set()
    frontier = []
    for idx, g in enumerate(gens):
        key = _pattern_key(g)
        if key not in seen:
            seen.add(key)
            frontier.append(((idx,), g))
    for word, pat in frontier:
        yield word, pat
    while frontier:
        nxt = []
        for word, pat in frontier:
            for idx, g in enumerate(gens):
                new = pat.astype(np.uint8) @ g.astype(np.uint8) > 0
                key = _pattern_key(new)
                if key in seen:
                    continue
                if len(seen) >= max_patterns:
                    raise BudgetExceededError(len(seen))
                seen.add(key)
                nxt.append((word + (idx,), new))
        nxt.sort(key=lambda item: item[0])
        for word, pat in nxt:
            yield word, pat
        frontier = nxt


@dataclass(frozen=True)
class SiaVerdict:
    """Outcome of the every-product-SIA check; truthy when all products pass."""

    all_sia: bool
    counterexample: tuple  # word of member indices, or None
    patterns_explored: int

    def __bool__(self):
        return self.all_sia


def all_products_sia(family, max_patterns=100_000):
    """Decide whether every finite product from the family is SIA.

    Explores the boolean pattern semigroup generated by the members (SIA
    depends only on positivity patterns).  Returns a falsy verdict carrying
    the first offending word, or a truthy one once the finite semigroup is
    exhausted.
    """
    if not isinstance(family, MatrixFamily):
        family = MatrixFamily(family)
    count = 0
    for word, pat in _explore_patterns(family, max_patterns):
        count += 1
        if not _pattern_sia(pat):
            return SiaVerdict(False, word, count)
    return SiaVerdict(True, None, count)


def exists_scrambling_product(family, max_patterns=100_000):
    """Find a word over the family whose product is scrambling.

    Returns the shortest such word (ties broken lexicographically) or None
    if the pattern semigroup holds no scrambling element.  A witness exists
    if and only if the union-graph condensation is connected with one leaf.
    """
    if not isinstance(family, MatrixFamily):
        family = MatrixFamily(family)
    for word, pat in _explore_patterns(family, max_patterns):
        if _pattern_scrambling(pat):
            return word
    return None


def subdominant_modulus(p):
    """Modulus of the second-largest eigenvalue of an SIA matrix.

    Strictly below 1 for SIA inputs; 0 for a rank-one matrix.
    """
    a = require_square(p)
    if not is_sia(a):
        raise NotSIAError("subdominant modulus is defined for SIA matrices")
    eigs = np.linalg.eigvals(a)
    # drop the single eigenvalue closest to 1
    drop = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, drop)
    if rest.size == 0:
        return 0.0
    return float(np.max(np.abs(rest)))


def nu_star(n):
    """Worst-case scrambling-block length for n states: (3^n - 2^(n+1) + 1)/2."""
    return (3 ** n - 2 ** (n + 1) + 1) // 2


@dataclass(frozen=True)
class RateCertificate:
    """Geometric error certificate: error(n) <= constant * base^floor(n/block).

    ``base`` and ``block`` are derived from spectral/ergodic quantities;
    ``constant_hint`` is an empirical fit from a probe run, not a proven
    constant.  ``per_structure`` keeps the separate network/concept rates
    so the combined product base can be compared against either one.
    """

    kind: str                 # "homogeneous" | "inhomogeneous"
    base: float
    block: int = 1
    constant_hint: float = None
    nu_star: int = None
    witness: tuple = None
    per_structure: dict = None
    transient_fit: float = None

    def predicted_bound(self, n):
        c = 1.0 if self.constant_hint is None else self.constant_hint
        return c * self.base ** (n // self.block)


def _slowest_class_modulus(p):
    """Largest subdominant modulus over the closed classes of p.

    For an SIA matrix this is just its subdominant modulus.  For a
    decomposable one, each closed class is treated as its own chain and the
    slowest (largest) class rate wins.
    """
    a = require_square(p)
    analysis = chains.analyze(a)
    if not analysis.recurrent_aperiodic:
        raise NotSIAError("a periodic closed class has no geometric rate")
    if analysis.is_indecomposable:
        return subdominant_modulus(a), None
    worst = 0.0
    for ci in analysis.condensation.leaf_classes:
        members = list(analysis.condensation.classes[ci])
        block = a[np.ix_(members, members)]
        worst = max(worst, subdominant_modulus(block))
    # empirical decay of the transient part (not certified by theory)
    pinf = matrix_power(a, 512)
    e8 = float(np.abs(matrix_power(a, 8) - pinf).max())
    e16 = float(np.abs(matrix_power(a, 16) - pinf).max())
    fit = (e16 / e8) ** (1.0 / 8.0) if e8 > 0 and e16 > 0 else None
    return worst, fit


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
    from .homogeneous import evolve, limit_q

    p = require_square(p)
    h = require_square(h)
    lam_p, fit_p = _slowest_class_modulus(p)
    lam_h, fit_h = _slowest_class_modulus(h)
    base = lam_p * lam_h
    if m is None:
        m = _probe_matrix(p.shape[0], h.shape[0])
    limit = limit_q(p, m, h).limit
    trace = evolve(p, m, h, probe_horizon, tol=0.0)
    constant = 0.0
    for n in range(1, probe_horizon + 1):
        err = float(np.abs(trace.snapshots[n] - limit).max())
        if base > 0:
            constant = max(constant, err / base ** n)
        elif err > 0:
            constant = max(constant, err)
    fits = [f for f in (fit_p, fit_h) if f is not None]
    return RateCertificate(
        kind="homogeneous",
        base=base,
        block=1,
        constant_hint=constant,
        per_structure={"network": lam_p, "concept": lam_h},
        transient_fit=max(fits) if fits else None,
    )


def inhomogeneous_rate_certificate(family, nu=None, max_patterns=100_000,
                                   max_words=200_000):
    """Certificate for sampled products: error(n) <= (1 - gamma)^floor(n/nu).

    nu (when not given) is the smallest block length at which every word of
    that length over the family has a scrambling pattern; it never needs to
    exceed nu_star(N) = (3^N - 2^(N+1) + 1)/2.  gamma is then minimized
    over the real-valued products of all words of length nu.
    """
    if not isinstance(family, MatrixFamily):
        family = MatrixFamily(family)
    family.require_square()
    n_states = family.shape[0]
    cap = nu_star(n_states)

    gens = [_pattern(m) for m in family.members]
    if nu is None:
        level = {_pattern_key(g): g for g in gens}
        found = None
        for length in range(1, cap + 1):
            if all(_pattern_scrambling(pat) for pat in level.values()):
                found = length
                break
            nxt = {}
            for pat in level.values():
                for g in gens:
                    new = pat.astype(np.uint8) @ g.astype(np.uint8) > 0
                    nxt[_pattern_key(new)] = new
                    if len(nxt) > max_patterns:
                        raise BudgetExceededError(len(nxt))
            level = nxt
        if found is None:
            raise NotConvergentFamilyError(
                f"no block length up to nu* = {cap} makes every word scrambling")
        nu = found

    if len(family) ** nu > max_words:
        raise BudgetExceededError(len(family) ** nu)
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
    if gamma <= 0.0:
        raise NotConvergentFamilyError("a length-nu word is not scrambling")
    return RateCertificate(
        kind="inhomogeneous",
        base=1.0 - gamma,
        block=int(nu),
        constant_hint=1.0,
        nu_star=cap,
        witness=witness,
    )


def power_contraction_holds(p, n, k):
    """Check delta(p^n) <= lambda(p^k)^floor(n/k) for SIA p with p^k scrambling."""
    pk = matrix_power(p, k)
    lam = contraction_coefficient(pk)
    if lam >= 1.0:
        raise NotSIAError(f"p^{k} is not scrambling")
    return delta_coefficient(matrix_power(p, n)) <= lam ** (n // k) + 1e-12
