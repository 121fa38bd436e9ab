"""CSV matrix files and weighted family directories.

Matrix format: an optional header line ``# rows=R cols=C`` followed by R
comma-separated rows of decimals.

Writing is a byte contract.  ``write_matrix`` writes the header, then each
row with every value as ``"%.12g" % value`` (12 significant digits, so
rewriting a parsed file is byte-stable; ``nan``, ``inf`` and ``-0`` as
Python prints them), each line ending in a newline; a matrix with no rows
is its header line alone.  One ``%`` fills a whole-matrix template, and
the bytes written are returned, so callers hash them without reading the
file back.

A family directory holds one ``.csv`` per member (ordered by file name)
and an optional ``weights.txt`` of ``index weight`` lines, 0-based against
that order; missing weights mean uniform sampling.
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
    rows = []
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
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad number: {exc}") from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(path, lineno, "ragged row")
    if not rows:
        raise ParseError(path, 0, "no data rows")
    a = np.array(rows, dtype=float)
    if expected is not None and a.shape != expected:
        raise ParseError(path, 0, f"header says {expected}, found {a.shape}")
    return a


def read_weights(path):
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
            weights[int(parts[0])] = float(parts[1])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    return weights


def load_family(dirpath, tol=1e-3):
    """Load a MatrixFamily from a directory of member CSVs.

    Members are renormalized by row after a loose validation, matching how
    printed matrices are ingested elsewhere.
    """
    dirpath = Path(dirpath)
    files = sorted(p for p in dirpath.iterdir() if p.suffix == ".csv")
    if not files:
        raise ParseError(dirpath, 0, "no member CSVs found")
    members = [ingest_rounded(read_matrix(p), tol=tol) for p in files]
    weights_file = dirpath / "weights.txt"
    weights = None
    if weights_file.exists():
        table = read_weights(weights_file)
        missing = set(range(len(members))) - set(table)
        if missing:
            raise ParseError(weights_file, 0, f"no weight for members {sorted(missing)}")
        weights = [table[i] for i in range(len(members))]
    return MatrixFamily(members, weights)
