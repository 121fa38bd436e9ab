import hashlib
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from beliefdyn import datasets, matrixio
from beliefdyn.cli import _load, _writer
from beliefdyn.homogeneous import evolve, limit_q
from beliefdyn.matrixio import (ParseError, load_family, read_matrix,
                                read_weights, write_matrix)
from beliefdyn.stochastic import max_abs_diff
from util import loop_read_matrix, loop_write_matrix, random_stochastic


def test_round_trip_preserves_values(tmp_path):
    m = random_stochastic(np.random.default_rng(61), 4, 6)
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.max(np.abs(back - m)) < 1e-12


def test_rewrite_is_byte_stable(tmp_path):
    m = random_stochastic(np.random.default_rng(62), 3, 3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_matrix(a, m)
    write_matrix(b, read_matrix(a))
    assert a.read_bytes() == b.read_bytes()


def test_header_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n")
    m = read_matrix(path)
    assert m.shape == (2, 2)


def test_header_shape_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# rows=3 cols=2\n0.5,0.5\n0.25,0.75\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.5,0.5\n0.2,0.3,0.5\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_bad_number_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5\n0.2,oops\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line == 2


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_weights_file(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("# comment\n0 0.25\n1 0.75\n")
    assert read_weights(path, 2) == [0.25, 0.75]


def test_load_family_uniform_without_weights(tmp_path):
    for i in range(2):
        write_matrix(tmp_path / f"m{i}.csv", np.eye(3))
    fam = load_family(tmp_path)
    assert len(fam) == 2
    assert np.allclose(fam.weights, [0.5, 0.5])


def test_load_family_with_weights(tmp_path):
    for i in range(2):
        write_matrix(tmp_path / f"m{i}.csv", np.eye(2))
    (tmp_path / "weights.txt").write_text("0 1\n1 3\n")
    fam = load_family(tmp_path)
    assert np.allclose(fam.weights, [0.25, 0.75])


def test_load_family_missing_weight_rejected(tmp_path):
    for i in range(2):
        write_matrix(tmp_path / f"m{i}.csv", np.eye(2))
    (tmp_path / "weights.txt").write_text("0 1\n")
    with pytest.raises(ParseError):
        load_family(tmp_path)


@pytest.mark.parametrize("text, line, message", [
    ("0 1\n1 3\n1 5\n", 3, "second weight for member 1"),
    ("0 1\n1 3\n7 2\n", 3, "member index 7 outside 0..1"),
    ("-1 4\n0 1\n1 3\n", 1, "member index -1 outside 0..1"),
])
def test_load_family_rejects_stray_weight_lines(tmp_path, text, line, message):
    for i in range(2):
        write_matrix(tmp_path / f"m{i}.csv", np.eye(2))
    (tmp_path / "weights.txt").write_text(text)
    with pytest.raises(ParseError) as err:
        load_family(tmp_path)
    assert err.value.path == str(tmp_path / "weights.txt")
    assert err.value.line == line
    assert str(err.value).endswith(message)


def test_family_member_loads_as_a_single_matrix(tmp_path):
    # twelve entries rounded to 3 decimals: every row sums to 0.998, inside
    # the 12-column rounding tolerance of 0.006 but not inside 0.001
    row = [0.083] * 10 + [0.084, 0.084]
    text = "".join(",".join("%.3f" % x for x in row[-i:] + row[:-i]) + "\n"
                   for i in range(12))
    (tmp_path / "family").mkdir()
    for path in (tmp_path / "p.csv", tmp_path / "family" / "m0.csv"):
        path.write_text(text)
    single = _load(tmp_path / "p.csv")
    assert np.array_equal(load_family(tmp_path / "family").members[0], single)
    assert np.allclose(single.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_bundled_fixture_parses():
    from pathlib import Path
    root = Path(__file__).resolve().parents[1] / "fixtures"
    m = read_matrix(root / "two_camp" / "p.csv")
    assert m.shape == (5, 5)
    fam = load_family(root / "scrambling_pair")
    assert len(fam) == 2


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# each fixtures/ matrix and the bundled dataset it restates
BUNDLED = {
    "two_camp/p.csv": lambda: datasets.two_camp_society()[0],
    "two_camp/m.csv": lambda: datasets.two_camp_society()[1],
    "two_camp/h.csv": lambda: datasets.two_camp_society()[2],
    "five_person/m.csv": datasets.five_person_beliefs,
    "triangle/m.csv": datasets.five_person_triangle,
}


@pytest.mark.parametrize("name", BUNDLED)
def test_fixture_agrees_with_bundled_dataset(name):
    # the two copies, each ingested as its users ingest it, differ by at
    # most 1.12e-13 (triangle/m.csv)
    fixture, data = _load(FIXTURES / name), BUNDLED[name]()
    assert fixture.shape == data.shape
    assert max_abs_diff(fixture, data) <= 2e-13


def test_fixture_family_agrees_with_bundled_dataset():
    fixture, data = load_family(FIXTURES / "single_leaf"), datasets.single_leaf_family()
    assert len(fixture) == len(data)
    for a, b in zip(fixture.members, data.members):
        assert a.shape == b.shape and max_abs_diff(a, b) <= 2e-13
    assert np.max(np.abs(fixture.weights - data.weights)) <= 2e-13


def test_ragged_row_after_equal_token_total(tmp_path):
    # 9 tokens make a 3x3 total, but row 2 already has 5 of them
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5,6,7,8\n9\n")
    with pytest.raises(ParseError) as err:
        read_matrix(path)
    assert err.value.line == 2
    assert str(err.value).endswith("ragged row")


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_write_matrix_rejects_other_than_two_dims(tmp_path, shape):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_write_matrix_with_no_rows_is_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    data = write_matrix(path, np.zeros((0, 3)))
    assert path.read_bytes() == data == b"# rows=0 cols=3\n"


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                  float("nan"), float("inf"), float("-inf")]

matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    elements=st.one_of(st.sampled_from(SPECIAL_VALUES),
                       st.floats(width=64),
                       st.floats(0, 1)))


@settings(max_examples=300, deadline=None)
@given(m=matrices)
def test_csv_io_matches_element_oracle(m):
    with tempfile.TemporaryDirectory() as tmp:
        fast, loop, again = (Path(tmp) / name for name in ("a", "b", "c"))
        data = write_matrix(fast, m)
        loop_write_matrix(loop, m)
        assert fast.read_bytes() == data == loop.read_bytes()
        if m.size == 0:
            with pytest.raises(ParseError, match="no data rows"):
                read_matrix(fast)
            return
        expected = [[float("%.12g" % x) for x in row] for row in m.tolist()]
        read = read_matrix(fast)
        assert np.array_equal(read, np.array(expected), equal_nan=True)
        assert write_matrix(again, read) == data


def _assert_writes_like_loop(m):
    with tempfile.TemporaryDirectory() as tmp:
        fast, loop = Path(tmp) / "a", Path(tmp) / "b"
        data = write_matrix(fast, m)
        loop_write_matrix(loop, m)
        assert fast.read_bytes() == data == loop.read_bytes()


# doubles at and next to the decades where the number of zeros after the
# point changes, and values whose 12 digits round up to the next decade
DECADES = [x for d in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
           for x in (np.nextafter(d, 0.0), d, np.nextafter(d, 2.0))]
ROUND_UP = [0.0999999999999995, 0.9999999999995] + [
    d * (1 - 3e-13) for d in (1e-3, 1e-2, 1e-1, 1.0)]

LARGE_ELEMENTS = st.one_of(
    st.sampled_from(DECADES + ROUND_UP + SPECIAL_VALUES),
    # half-way between two 12-digit decimals
    st.builds(lambda d, k: (10 * d + 5) / 10 ** (13 + k),
              st.integers(10 ** 11, 10 ** 12 - 1), st.integers(0, 3)),
    # short decimals, whose 12 digits end in zeros
    st.integers(1, 9999).map(lambda i: i / 10000),
    st.floats(0, 1e-4),
    # every decade alike, where st.floats(0, 1) mostly draws above 1e-2
    st.floats(-4.5, 0).map(lambda e: 10.0 ** e),
    st.floats(0, 1))


@st.composite
def large_matrices(draw):
    """16-48 x 32-48 matrices: at least 512 values, so past the floor below
    which ``write_matrix`` never tries integer digits.

    Drawing each of up to 2,304 elements costs hypothesis about 0.1 ms, so
    the values come from a drawn pool of at most 40, placed by a drawn
    seed.  Half the draws repeat one row, so every row has the same pieces.
    """
    rows, cols = draw(st.integers(16, 48)), draw(st.integers(32, 48))
    pool = np.array(draw(st.lists(LARGE_ELEMENTS, min_size=1, max_size=40)))
    pick = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        len(pool), size=(1 if draw(st.booleans()) else rows, cols))
    return np.broadcast_to(pool[pick], (rows, cols))


@settings(max_examples=200, deadline=None)
@given(m=large_matrices())
def test_digit_path_matches_element_oracle(m):
    assert m.size >= matrixio._DIGITS_FLOOR
    _assert_writes_like_loop(m)


def test_write_matches_element_oracle_on_evolve_snapshots():
    rng = np.random.default_rng(23)
    p = random_stochastic(rng, 400, zeros=0.95)
    m = random_stochastic(rng, 400, 12)
    h = random_stochastic(rng, 12, zeros=0.5)
    trace = evolve(p, m, h, 60)
    snapshots = trace.beliefs + [limit_q(p, m, h).limit]
    for q in snapshots + [random_stochastic(rng, 400), snapshots[0].T]:
        assert q.size >= matrixio._DIGITS_FLOOR
        _assert_writes_like_loop(q)


def _read(reader, path):
    """The array ``reader`` returns, or the line and text of its ParseError."""
    try:
        return reader(path)
    except ParseError as exc:
        return exc.line, str(exc)


def _assert_same_read(path):
    fast, loop = _read(read_matrix, path), _read(loop_read_matrix, path)
    if isinstance(loop, tuple):
        assert fast == loop
    else:
        assert fast.dtype == loop.dtype == np.float64
        assert fast.shape == loop.shape
        # bit patterns, so the sign of a NaN and of a zero count
        assert np.array_equal(fast.view(np.uint64), loop.view(np.uint64))


# 1_0 and non-ASCII digits are Python float syntax that numpy does not
# read, so the reader falls back to float() per token
NUMBER_TOKENS = ["+.5", "5.", "nan", "-nan", "NaN", "Infinity", "-inf", "-0",
                 "5e-324", "1e-310", "2.2250738585072e-308", "1e400", "-1e400",
                 "1_0", "\uff11\uff12", "\uff10.\uff15", "0.5"]
PADDING = ["", " ", "\t", "  ", "\xa0", "\u3000"]
# each file carries at most one of these, so about half the files parse
DEFECTS = {
    "bad token": ["", "1e", ".", "0x10", "1 2", "nan(1)", "1__0", "1\x00", "\"1\""],
    "unit separator": ["\x1f1", "1\x1f"],   # numpy would strip it, float() does not
    "line break": ["1\x0b2", "1\x0c2"],      # str.splitlines ends a line there
    "row end": [",", " # note", ",,"],
}

tokens = st.builds(
    lambda pad, tok, trail: pad + tok + trail,
    st.sampled_from(PADDING),
    st.one_of(st.sampled_from(NUMBER_TOKENS),
              st.floats(width=64).map(repr),
              st.floats(width=64).map(lambda x: "%.12g" % x),
              st.floats(0, 1).map(lambda x: "%.3e" % x)),
    st.sampled_from(PADDING))
noise_lines = st.sampled_from(["", "   ", "# note", "#", "  # indented note",
                               "# rows=two cols=3"])


@st.composite
def csv_texts(draw):
    cols = draw(st.integers(1, 5))
    rows = [draw(st.lists(tokens, min_size=cols, max_size=cols))
            for _ in range(draw(st.integers(0, 5)))]
    defect = draw(st.sampled_from([None] * 4 + ["ragged"] + sorted(DEFECTS)))
    if rows and defect == "ragged":
        row = draw(st.sampled_from(rows))
        if len(row) > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(tokens))
    elif rows and defect:
        row = draw(st.sampled_from(rows))
        bad = draw(st.sampled_from(DEFECTS[defect]))
        if defect == "row end":
            row[-1] += bad
        else:
            row[draw(st.integers(0, cols - 1))] = bad
    lines = []
    for row in rows:
        lines += draw(st.lists(noise_lines, max_size=2)) + [",".join(row)]
    lines += draw(st.lists(noise_lines, max_size=2))
    header = draw(st.sampled_from(["none", "right", "right", "wrong"]))
    if header != "none":
        count = len(rows) + (header == "wrong")
        lines.insert(draw(st.integers(0, len(lines))), f"# rows={count} cols={cols}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
@example(text="0.5,\x1f1\n0.25,0.75\n")
@example(text="# rows=1 cols=2\n0.5,0.5 # note\n")
def test_read_matches_float_oracle_bits_and_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text(text, encoding="utf-8")
        _assert_same_read(path)


@pytest.mark.parametrize("text, shape", [
    ("# rows=1 cols=4\n0.1,0.2,0.3,0.4\n", (1, 4)),
    ("0.5\n0.25\n1\n", (3, 1)),
    ("# rows=1 cols=1\n1\n", (1, 1)),
    ("1_0\n", (1, 1)),                  # read by the float() pass
    ("0.5,0.5\n# note\n\n0.25, 0.75\n", (2, 2)),
])
def test_read_shape_and_layout(tmp_path, text, shape):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = read_matrix(path)
    assert a.shape == shape
    assert a.dtype == np.float64
    # ergodic_coefficient's row blocks rely on C order
    assert a.flags.c_contiguous and a.flags.writeable
    _assert_same_read(path)


@pytest.mark.parametrize("text", ["", "# rows=0 cols=3\n", "# only a note\n  \n"])
def test_no_data_rows_raise_before_any_warning(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no data rows"):
            read_matrix(path)


# tracemalloc peak for a dense seeded 400x400 file (2.4 MB of text):
# about 5.5 MB for the numpy reader, 7.9 MB for one float per value
READ_PEAK_CAP = 6.5e6


def test_read_peak_memory_pinned(tmp_path):
    path = tmp_path / "big.csv"
    write_matrix(path, random_stochastic(np.random.default_rng(400), 400))
    peaks = []
    for reader in (read_matrix, loop_read_matrix):
        tracemalloc.start()
        try:
            reader(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < READ_PEAK_CAP < peaks[1], peaks


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    elements=st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64))),
    max_size=7))
def test_writer_matches_element_oracle(batch):
    names = [f"d{k % 2}/m{k}.csv" for k in range(len(batch))]
    with tempfile.TemporaryDirectory() as tmp:
        expected = {}
        for name, m in zip(names, batch):
            path = Path(tmp, "loop", name)
            path.parent.mkdir(parents=True, exist_ok=True)
            loop_write_matrix(path, m)
            expected[name] = path.read_bytes()
        path, write, written = _writer(Path(tmp, "out"))
        for name, m in zip(names, batch):
            write(name, matrix=m)
        assert written == {name: hashlib.sha256(data).hexdigest()
                           for name, data in expected.items()}
        for name, data in expected.items():
            assert path(name).read_bytes() == data
