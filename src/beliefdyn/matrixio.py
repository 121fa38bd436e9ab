"""CSV matrix files and weighted family directories.

Matrix format: an optional header line ``# rows=R cols=C`` followed by R
comma-separated rows of numbers, each a token in Python ``float`` syntax
(whitespace around it is allowed, an empty field is not).  Blank lines are
skipped; ``#`` starts a comment only at the start of a line, so
``0.5 # note`` is a bad number.  Errors name the file and the line.

The numbers are parsed by one ``numpy.loadtxt`` call.  Only after it fails
(or where a data line holds U+001F, which numpy strips as whitespace and
``float`` rejects) does a per-line ``float`` pass run: it names the first
bad line and reads syntax numpy does not take, such as ``1_0``.  Both
convert through CPython's ``PyOS_string_to_double``, so either way the
bits are those of ``float(token)``.

Writing is a byte contract.  ``write_matrix`` writes the header, then each
row with every value as ``"%.12g" % value`` (12 significant digits, so
rewriting a parsed file is byte-stable; ``nan``, ``inf`` and ``-0`` as
Python prints them), each line ending in a newline; a matrix with no rows
is its header line alone.  The bytes written are returned, so callers
hash them without reading the file back.  numpy computes the digits: each
value in ``[1e-4, 1)`` whose 12 digits it gets exactly becomes an integer
in a ``0.<zeros>%d`` piece, which CPython prints about 3x faster than
``%.12g``; every other value keeps a ``%.12g`` piece.  Rows whose text
must be equal are grouped first, and one bytes ``%`` fills a template of
one row per group: runs converge, so most rows of a late snapshot repeat
an earlier row's text.

A family directory holds one ``.csv`` per member (ordered by file name)
and an optional ``weights.txt`` of ``index weight`` lines, 0-based against
that order, one line per member; without the file, sampling is uniform.
"""

import re
from pathlib import Path

import numpy as np

from .stochastic import MatrixFamily, ingest_rounded

_HEADER = re.compile(r"#\s*rows=(\d+)\s+cols=(\d+)\s*$")
_VALUE = "%.12g"
_SCALES = np.array([1e12, 1e13, 1e14, 1e15])
# _digits_text's pieces by code: k = 0..3 zeros after the point, or any other
# value; the codes are floats, like the rest of its arrays
_PIECES = np.array([b"0.%d", b"0.0%d", b"0.00%d", b"0.000%d", _VALUE.encode()],
                   dtype=object)
_OTHER = 4.0


class ParseError(ValueError):
    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def format_value(x):
    return _VALUE % float(x)


def write_matrix(path, m):
    """Write ``m`` as CSV; returns the bytes written."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"write_matrix needs a 2-D matrix, got shape {m.shape}")
    data = b"# rows=%d cols=%d\n" % m.shape
    if len(m):
        data += _digits_text(m)
    Path(path).write_bytes(data)
    return data


def _digits_text(m):
    """``m``'s rows as ``"%.12g"`` writes them, in bytes, with exact values
    as integers and each distinct row formatted once.

    A value ``x`` in ``[1e-4, 1)`` with ``k`` zeros after the point prints
    as ``"0." + "0" * k`` and its 12 digits ``rint(x * 1e{12+k})`` less
    their trailing zeros.  The doubles ``1e-1 .. 1e-4`` each lie just above
    their power of ten, with no double in between, so comparing with them
    counts ``k`` exactly.  The product ``y`` is rounded once, and rounding
    is monotonic, so ``y`` lies on the same side of every half-integer (a
    double below 2**52) as the exact product: unless ``y`` is itself a
    half-integer, ``rint(y)`` is the correctly rounded digit string, and
    below 1e12 it has 12 digits.  Every other value (zeros, nan, inf,
    values of 1 or more or below 1e-4, ties and values that round up to the
    next decade) keeps a ``%.12g`` piece.

    Rows whose text must be equal are grouped before any is formatted.  A
    value's key is ``r + 1e12 * k`` on the integer path, an integer below
    4e12 and so exact, which fixes its text; a ``%.12g`` value's key is
    nan, which equals nothing, so a row holding one is formatted on its
    own.  One sum of each row's keys, weighted 1, 2, ... by column, only
    orders the rows: a row takes its sorted predecessor's line only when
    their whole keys are equal.  Converging runs repeat most rows, so this
    pays.

    The arithmetic, the group counts included, stays in float64: bool or
    integer arithmetic here would page in numpy loops that nothing else in
    an ``evolve`` run uses, about 64 KB of peak RSS each.  The stable sort
    pages in 128 KB, half of what the default sort does.
    """
    inside = (m >= 1e-4) & (m < 1.0)
    k = np.where(m < 1e-1, 1.0, 0.0)
    k[m < 1e-2] = 2.0
    k[m < 1e-3] = 3.0
    y = np.where(inside, m, 0.0)
    y *= _SCALES.take(k.astype(np.intp))
    r = np.rint(y)
    y -= r
    exact = inside & (np.abs(y, out=y) < 0.5) & (r < 1e12)
    key = np.where(exact, k * 1e12 + r, np.nan)
    order = np.argsort(key @ np.arange(1.0, m.shape[1] + 1), kind="stable")
    ranked = key[order]
    fresh = np.ones(len(m))
    fresh[1:] = np.where((ranked[1:] != ranked[:-1]).any(axis=1), 1.0, 0.0)
    group = np.empty(len(m))
    group[order] = np.cumsum(fresh) - 1
    # one row per group, in sorted order, so group g prints on line g
    rows = order[fresh == 1.0]
    m, r, k, exact = m[rows], r[rows], k[rows], exact[rows]
    # an integer below 2**53 divided by 10 is exact when the quotient is whole
    tenth = r / 10
    ends = np.flatnonzero(exact & (tenth == np.rint(tenth)))
    digits = r.ravel()
    while ends.size:
        digits[ends] /= 10
        tenth = digits[ends] / 10
        ends = ends[tenth == np.rint(tenth)]
    codes = np.where(exact, k, _OTHER)
    values = digits.astype(np.int64).tolist()
    other = np.flatnonzero(codes == _OTHER)
    for i, x in zip(other.tolist(), m.ravel()[other].tolist()):
        values[i] = x
    lines = (_template(codes) % tuple(values)).split(b"\n")
    return b"\n".join([lines[g] for g in group.astype(np.intp).tolist()]) + b"\n"


def _template(codes):
    """The ``%`` template of a matrix whose values have the pieces ``codes``."""
    if (codes == codes[0]).all():           # every row has the same pieces
        return (b",".join(_PIECES[codes[0].astype(np.intp)].tolist()) + b"\n") * len(codes)
    return b"".join([b",".join(row) + b"\n" for row in _PIECES[codes.astype(np.intp)].tolist()])


def read_matrix(path):
    path = Path(path)
    linenos, lines = [], []
    expected = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if m:
                expected = (int(m.group(1)), int(m.group(2)))
            continue
        linenos.append(lineno)
        lines.append(line)
    # loadtxt warns on empty input, so this check comes first
    if not lines:
        raise ParseError(path, 0, "no data rows")
    a = None
    # numpy strips U+001F around a number as whitespace; float() rejects it
    if not any("\x1f" in line for line in lines):
        try:
            a = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if a is None:
        a = _float_rows(path, linenos, lines)
    if expected is not None and a.shape != expected:
        raise ParseError(path, 0, f"header says {expected}, found {a.shape}")
    return a


def _float_rows(path, linenos, lines):
    """Parse each token with ``float``; raises on the first bad line."""
    rows = []
    for lineno, line in zip(linenos, lines):
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad number: {exc}") from None
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(path, lineno, "ragged row")
    return np.array(rows, dtype=float)


def read_weights(path, count):
    """Weights of members ``0 .. count-1`` from ``index weight`` lines."""
    path = Path(path)
    weights = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, "expected 'index weight'")
        try:
            index, weight = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if not 0 <= index < count:
            raise ParseError(path, lineno, f"member index {index} outside 0..{count - 1}")
        if index in weights:
            raise ParseError(path, lineno, f"second weight for member {index}")
        weights[index] = weight
    missing = sorted(set(range(count)) - set(weights))
    if missing:
        raise ParseError(path, 0, f"no weight for members {missing}")
    return [weights[i] for i in range(count)]


def load_family(dirpath):
    """Load a MatrixFamily from a directory of member CSVs.

    Each member is ingested as a ``--p`` matrix is (``ingest_rounded``).
    """
    dirpath = Path(dirpath)
    files = sorted(p for p in dirpath.iterdir() if p.suffix == ".csv")
    if not files:
        raise ParseError(dirpath, 0, "no member CSVs found")
    members = [ingest_rounded(read_matrix(p)) for p in files]
    weights_file = dirpath / "weights.txt"
    weights = None
    if weights_file.exists():
        weights = read_weights(weights_file, len(members))
    return MatrixFamily(members, weights)
