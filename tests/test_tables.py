import io
import re
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockcop.descriptors import load_tabulated_generator, write_tabulated_generator
from shockcop.distributions import load_tabulated_csv
from shockcop.errors import TableFormatError
from shockcop.generators import GeneratorClass, TabulatedGenerator
from shockcop.sampling import (
    SamplePairs,
    average_ranks,
    read_pairs_csv,
    write_pairs_csv,
)
from shockcop import tables
from shockcop.tables import read_table, write_table

finite = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=50))
@example([(x, y) for x, y in zip(EDGES, EDGES[::-1])])
@settings(max_examples=200, deadline=None)
def test_write_then_read_is_bit_identical(rows):
    cols = np.array(rows, dtype=np.float64).T
    buf = io.StringIO()
    write_table(buf, "tool=t seed=3", "a,b", cols)
    meta, header, table = read_table(io.StringIO(buf.getvalue()))
    assert meta == {"tool": "t", "seed": "3"}
    assert header == ["a", "b"]
    assert table.dtype == np.float64 and table.shape == (len(rows), 2)
    np.testing.assert_array_equal(bits(table), bits(cols.T))


def test_writer_bytes():
    buf = io.StringIO()
    write_table(buf, "k=v", "x,y,z", ([0.1, -0.0], np.array([1, 2]), [1e308, 5e-324]))
    assert buf.getvalue() == "# k=v\nx,y,z\n0.1,1.0,1e+308\n-0.0,2.0,5e-324\n"


def test_reader_contract(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# a=1 word b=x=y\n\n x , p ,extra\n# a=2\n0.5, 0.25 ,9\n1,1\n")
    meta, header, table = read_table(path)
    assert meta == {"a": "2", "b": "x=y"}
    assert header == ["x", "p", "extra"]
    np.testing.assert_array_equal(table, [[0.5, 0.25], [1.0, 1.0]])
    # no header and no comment
    _, header, table = read_table(io.StringIO("1,2\n3,4\n"))
    assert header is None and table.shape == (2, 2)


@pytest.mark.parametrize(
    "text, line",
    [
        ("u,v\n0.1,0.2\nnan,0.5\n0.3,0.4\n", 3),
        ("u,v\n0.1,0.2\nabc,0.5\n", 3),
        ("u,v\n0.1,0.2\n0.3,inf\n", 3),
        ("# c\nu,v\n0.1,0.2\n-inf,0.2\n", 4),
        ("u,v\n\n0.1,0.2\n# c\n\n0.3,nan\n# d\n0.5,0.6\n", 6),
        ("u,v\nu,v\n0.1,0.2\n", 2),  # a second header
        ("0.1,0.2\nu,v\n", 2),  # a header after a row
        ("0.1,0.2\n0.3\n", 2),  # one field
        ("nan,0.5\n0.1,0.2\n", 1),  # a number is never a header
        ("1.0\n0.1,0.2\n", 1),
    ],
)
def test_reader_rejects_bad_rows_naming_the_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}:{line}: "):
        read_table(path)


@pytest.mark.parametrize("bad_row", ["nan,0.5", "abc,0.5", "inf,0.2"])
def test_every_reader_rejects_a_mid_file_bad_row(tmp_path, bad_row):
    tables = {
        read_pairs_csv: "u,v\n0.1,0.2\n{}\n0.9,0.8\n",
        load_tabulated_csv: "x,p\n0.0,0.2\n{}\n2.0,1.0\n",
        lambda p: load_tabulated_generator(p, GeneratorClass.RMM): "u,value\n0,0\n{}\n1,0\n",
    }
    path = tmp_path / "bad.csv"
    for read, text in tables.items():
        path.write_text(text.format(bad_row))
        with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}:3: "):
            read(path)


def test_pair_file_with_bad_rows_is_rejected(tmp_path):
    # these 1003 rows used to read as 1001 pairs
    good = "".join(f"{i / 1000!r},{1 - i / 1000!r}\n" for i in range(1000))
    path = tmp_path / "pairs.csv"
    path.write_text(f"u,v\n{good}nan,0.5\ninf,0.2\n0.3,0.4,9.9\n")
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}:1002: "):
        read_pairs_csv(path)


@pytest.mark.parametrize(
    "read",
    [read_table, read_pairs_csv, load_tabulated_csv,
     lambda p: load_tabulated_generator(p, GeneratorClass.SMM)],
)
def test_missing_file_is_a_table_error_naming_the_path(tmp_path, read):
    path = tmp_path / "missing.csv"
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}: cannot read"):
        read(path)


def test_non_integer_seed_is_a_table_error_naming_the_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("# seed=abc\nu,v\n0.1,0.2\n")
    with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}: seed='abc'"):
        read_pairs_csv(path)


def test_headers_of_knot_tables_are_required(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,0.4\n1.0,1.0\n")
    with pytest.raises(TableFormatError, match="expected header 'x,p'"):
        load_tabulated_csv(path)
    with pytest.raises(TableFormatError, match="expected header 'u,value'"):
        load_tabulated_generator(path, GeneratorClass.RMM)


# ---------------------------------------------------------------------------
# one round trip per public writer/reader pair
# ---------------------------------------------------------------------------

PAIRS = np.array([[0.25, -0.0], [5e-324, 1e308], [0.1, 0.1], [1.0 / 3.0, 0.7]])


def test_raw_pairs_round_trip():
    buf = io.StringIO()
    write_pairs_csv(buf, SamplePairs(PAIRS, seed=9, descriptor="d:x=1"), kind="raw", version="v")
    back = read_pairs_csv(io.StringIO(buf.getvalue()))
    assert (back.seed, back.descriptor) == (9, "d:x=1")
    np.testing.assert_array_equal(bits(back.pairs), bits(PAIRS))


def test_ranks_round_trip():
    buf = io.StringIO()
    write_pairs_csv(buf, SamplePairs(PAIRS, seed=9, descriptor="d"), kind="ranks")
    back = read_pairs_csv(io.StringIO(buf.getvalue()))
    want = np.column_stack([average_ranks(col) / 4 for col in PAIRS.T])
    np.testing.assert_array_equal(bits(back.pairs), bits(want))


def test_generator_table_round_trip(tmp_path):
    us = np.concatenate(([0.0], np.sort(np.random.default_rng(1).random(30)), [1.0]))
    gen = TabulatedGenerator(us, np.sqrt(us) * (1.0 - us), GeneratorClass.RMM)
    path = tmp_path / "gen.csv"
    write_tabulated_generator(path, gen)
    back = load_tabulated_generator(path, GeneratorClass.RMM)
    np.testing.assert_array_equal(bits(back.us), bits(gen.us))
    np.testing.assert_array_equal(bits(back.values), bits(gen.values))


def test_cdf_table_round_trip(tmp_path):
    xs = np.cumsum(np.random.default_rng(2).random(40)) - 7.0
    ps = np.linspace(0.0, 1.0, 41)[1:] ** 3
    path = tmp_path / "cdf.csv"
    write_table(path, "shockcop=t", "x,p", (xs, ps))
    back = load_tabulated_csv(path, "linear")
    np.testing.assert_array_equal(bits(back.xs), bits(xs))
    np.testing.assert_array_equal(bits(back.ps), bits(ps))


# ---------------------------------------------------------------------------
# the block reader against the line loop
# ---------------------------------------------------------------------------


def read_outcome(source):
    """``read_table(source)`` with its table as bits, or the error text."""
    try:
        meta, header, table = read_table(source)
    except TableFormatError as exc:
        return str(exc)
    return meta, header, bits(table).tolist()


def line_loop():
    """Turn the block parse off, which leaves every line to the line loop."""
    return mock.patch.object(tables, "_block_values", lambda lines: None)


def handle_outcome(text, newline, block_chars, by_lines=False):
    """:func:`read_outcome` of ``text`` through a handle that splits lines as a file
    opened with ``newline`` does, in blocks of ``block_chars``."""
    handle = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
    with mock.patch.object(tables, "_READ_BLOCK", block_chars), line_loop() if by_lines else nullcontext():
        return read_outcome(handle)


MUTATIONS = ["# seed=7 k=v", "", "   ", "\t", "1.0,2.0,3.0", "1_0,2.0", "١٢,2.0", " 1.5,2.0", "1.5 ,2.0",
             " ,0.5", "0.5, ", "nan,0.5", "0.5,inf", "-inf,0.5", "0.5", "0.5,", ",0.5", "abc,0.5", "u,v",
             "1e999,0.5", "0x1p0,1", "1.5e,2.0", "0.5,1.5.2", "+-1,2", "1,2,"]


@st.composite
def table_texts(draw):
    """A ``write_table`` text of 1 to 200 rows, maybe with one line replaced by or
    inserted as a mutation, CRLF ends or no final newline."""
    rows = draw(st.lists(st.tuples(finite, finite), min_size=1, max_size=200))
    buf = io.StringIO()
    write_table(buf, "tool=t seed=3", "a,b", np.array(rows, dtype=np.float64).T)
    lines = buf.getvalue().splitlines()
    if draw(st.booleans()):
        at = draw(st.integers(1, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(MUTATIONS))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + ("" if draw(st.booleans()) else end)
    return text, draw(st.sampled_from([None, "\n", ""])), draw(st.integers(1, 3000))


@given(table_texts())
@example(("# k=v\nu,v\n0.1,0.2\n", "\n", 1))
@example(("u,v\n0.1,0.2\n1.0,2.0,3.0\n0.5\n0.3,0.4\n", None, 3000))  # 3 fields, then 1
@settings(max_examples=300, deadline=None)
def test_block_reader_equals_the_line_loop(case):
    text, newline, block_chars = case
    assert handle_outcome(text, newline, block_chars) == handle_outcome(text, newline, block_chars, True)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("at", [3, 2500, 4999])
def test_a_bad_line_deep_in_a_multi_block_file_reads_as_in_the_line_loop(tmp_path, mutation, at):
    rows = [f"{i / 7!r},{-i / 3!r}" for i in range(5000)]
    rows[at] = mutation
    path = tmp_path / "deep.csv"
    path.write_text("# seed=3\nu,v\n" + "\n".join(rows) + "\n")
    with mock.patch.object(tables, "_READ_BLOCK", 4096):
        got = read_outcome(path)
        with line_loop():
            assert got == read_outcome(path)
    if isinstance(got, str) and "bad row" in got:
        assert got == f"{path}:{at + 3}: bad row {mutation.strip()!r}"
    elif isinstance(got, str):
        assert got == f"{path}:{at + 3}: value is not a finite number"


def test_a_comment_mid_file_overrides_the_header_comment(tmp_path):
    rows = "".join(f"{i / 7!r},{i / 9!r}\n" for i in range(3000))
    path = tmp_path / "t.csv"
    path.write_text(f"# seed=3 k=a\nu,v\n{rows}# seed=8\n{rows}")
    with mock.patch.object(tables, "_READ_BLOCK", 1000):
        meta, _, table = read_table(path)
    assert meta == {"seed": "8", "k": "a"} and table.shape == (6000, 2)


def test_a_string_handle_takes_the_block_path():
    rows = np.random.default_rng(1).normal(size=(2, 20_000))
    buf = io.StringIO()
    write_table(buf, "seed=1", "u,v", rows)
    parsed = []
    block_values = tables._block_values

    def spy(lines):
        values = block_values(lines)
        parsed.append(values is not None)
        return values

    with mock.patch.object(tables, "_block_values", spy):
        _, _, table = read_table(io.StringIO(buf.getvalue()))
    assert len(parsed) >= 2 and all(parsed)
    np.testing.assert_array_equal(bits(table), bits(rows.T))


def test_reading_200k_rows_holds_one_block_beside_the_result(tmp_path):
    import tracemalloc

    n = 200_000
    path = tmp_path / "pairs.csv"
    write_table(path, "seed=1", "u,v", np.random.default_rng(2).normal(size=(2, n)))
    tracemalloc.start()
    try:
        _, _, table = read_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (n, 2)
    # about 9 bytes a row beyond the result at 200k rows, all of it one block's lines,
    # text and fields; the whole file's text alone would be 40
    assert peak - table.nbytes < 16 * n


def test_an_escaped_undecodable_byte_is_a_bad_row():
    # errors="surrogateescape" turns the byte into a lone surrogate, which float() refuses
    rows = "".join(f"{i / 7!r},{i / 9!r}\n" for i in range(50))
    raw = f"u,v\n{rows}0.5,\udcff1\n{rows}".encode("utf-8", "surrogateescape")
    handle = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    with pytest.raises(TableFormatError, match=r"^<stream>:52: bad row '0.5,\\udcff1'$"):
        read_table(handle)
