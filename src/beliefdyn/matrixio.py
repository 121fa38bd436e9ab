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
is its header line alone.  One ``%`` fills a whole-matrix template, and
the bytes written are returned, so callers hash them without reading the
file back.

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
    text = "# rows=%d cols=%d\n" % m.shape
    rows, cols = m.shape
    if rows:
        template = "\n".join([",".join([_VALUE] * cols)] * rows) + "\n"
        text += template % tuple(m.ravel().tolist())
    data = text.encode()
    Path(path).write_bytes(data)
    return data


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
