"""Dense row-stochastic matrix foundation.

Matrices are plain float64 ``numpy`` arrays.  A "stochastic matrix" in this
package is any 2-D array that has passed :func:`validate_stochastic`:
nonnegative entries, every row summing to 1 within tolerance.  All
operations are pure functions; nothing here mutates its inputs.

Input errors beyond the entry checks have three classes: a shape that does
not fit (:class:`DimensionMismatchError`), a row or column to normalize that
sums to zero (:class:`ZeroSumError`), and a structure that is not SIA
(``chains.NotSIAError``).  Messages count rows and columns from 1.

Everything is stored dense.  The benchmark workloads run at 32 to 400
states; the largest matrix, of the 400-person static study, takes 1.3 MB.
A homophily run at 1000 to 2000 people is a planned scale, where one
matrix takes 8 to 32 MB.
"""

import numpy as np

DEFAULT_TOL = 1e-9


class NegativeEntryError(ValueError):
    """A matrix entry is negative where probabilities are required."""

    def __init__(self, row, col, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"negative entry {value!r} at ({row + 1}, {col + 1})")


class RowSumError(ValueError):
    """A row does not sum to 1 within the validation tolerance."""

    def __init__(self, row, total, tol):
        self.row, self.total, self.tol = row, total, tol
        super().__init__(f"row {row + 1} sums to {total!r} (tolerance {tol!r})")


class DimensionMismatchError(ValueError):
    """A shape does not fit: not 2-D, not square, or not matching another."""


class ZeroSumError(ValueError):
    """Normalization along ``axis`` (0 rows, 1 columns) hit an all-zero line."""

    def __init__(self, axis, index):
        self.axis, self.index = axis, index
        super().__init__(f"{('row', 'column')[axis]} {index + 1} is identically zero")


def as_matrix(m):
    """Coerce to a fresh 2-D float64 array and reject non-finite entries."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def require_square(m):
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def validate_stochastic(m, tol=DEFAULT_TOL):
    """Check nonnegativity and unit row sums; return the validated array.

    Parameters
    ----------
    m : array_like
        Candidate matrix.
    tol : float
        Permitted deviation of each row sum from 1.

    Returns
    -------
    ndarray
        A float64 copy of ``m``, entries unchanged.

    Raises
    ------
    NegativeEntryError, RowSumError
    """
    a = as_matrix(m)
    _reject_negative(a)
    sums = a.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > tol)
    if len(bad):
        i = int(bad[0][0])
        raise RowSumError(i, float(sums[i]), tol)
    return a


def ingest_rounded(m):
    """Validate a matrix printed with rounded decimals, then renormalize.

    Published tables are typically rounded to 3 decimals, so each row sum
    can drift from 1 by up to half an ulp per entry.  The tolerance scales
    accordingly (5e-4 per column, at least 1e-3); rows are then rescaled
    so downstream invariants hold exactly.
    """
    a = as_matrix(m)
    tol = max(1e-3, 5e-4 * a.shape[1]) + 1e-12
    return row_normalize(validate_stochastic(a, tol=tol))


def _reject_negative(a):
    neg = np.argwhere(a < 0)
    if len(neg):
        i, j = map(int, neg[0])
        raise NegativeEntryError(i, j, float(a[i, j]))


def _normalize(m, axis):
    """Scale each row (``axis`` 0) or column (1) to sum to 1; zeros stay zero."""
    a = as_matrix(m)
    _reject_negative(a)
    sums = a.sum(axis=1 - axis, keepdims=True)
    if not sums.all():
        raise ZeroSumError(axis, int(np.flatnonzero(sums == 0)[0]))
    return a / sums


def row_normalize(m):
    """Scale each row to sum to 1.  Zero entries stay zero."""
    return _normalize(m, 0)


def col_normalize(m):
    """Scale each column to sum to 1.  Zero entries stay zero."""
    return _normalize(m, 1)


def multiply(a, b, tol=DEFAULT_TOL):
    """Product of two stochastic matrices, revalidated at 10*tol."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    return validate_stochastic(a @ b, tol=10 * tol)


def matrix_power(p, n):
    """p**n by repeated squaring; n = 0 gives the identity."""
    p = require_square(p)
    if n < 0:
        raise ValueError("negative powers are not defined for stochastic matrices")
    result = np.eye(p.shape[0])
    base = p.copy()
    k = int(n)
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def delta_coefficient(p):
    """Largest columnwise spread between any two rows.

    Zero exactly when all rows are identical (a rank-one matrix); at most 1
    for a stochastic matrix.
    """
    a = as_matrix(p)
    return float(np.max(a.max(axis=0) - a.min(axis=0)))


def max_abs_diff(a, b):
    """Entrywise max-norm distance, the stabilization metric used throughout."""
    return float(np.max(np.abs(as_matrix(a) - as_matrix(b))))


class MatrixFamily:
    """A finite set of same-shape stochastic matrices with sampling weights.

    Weights must be finite and strictly positive; they are rescaled to sum
    to 1 at construction.  Two families are equal only when they are the
    same object.
    """

    def __init__(self, members, weights=None):
        members = tuple(validate_stochastic(m, tol=1e-7) for m in members)
        if not members:
            raise DimensionMismatchError("a family needs at least one member")
        shape = members[0].shape
        for m in members[1:]:
            if m.shape != shape:
                raise DimensionMismatchError(f"member shapes differ: {shape} vs {m.shape}")
        if weights is None:
            w = np.full(len(members), 1.0 / len(members))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(members),):
                raise DimensionMismatchError("need one weight per member")
            if not np.all((w > 0) & (w < np.inf)):     # NaN fails both
                raise ValueError("sampling weights must be finite and strictly positive")
            w = w / w.sum()
        self.members = members
        self.weights = w

    def __len__(self):
        return len(self.members)

    @property
    def shape(self):
        return self.members[0].shape

    def require_square(self):
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatchError(f"family members must be square, got {self.shape}")
        return self


def _as_family(family):
    """``family`` itself when it is a MatrixFamily, else a family of its members."""
    return family if isinstance(family, MatrixFamily) else MatrixFamily(family)
