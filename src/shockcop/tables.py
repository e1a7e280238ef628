"""One format for every CSV table file the package reads or writes.

:func:`write_table` writes one ``# ...`` comment line, one header row and one
row per record, each value as the ``repr`` of its float64, so reading the
file back returns the values to the bit.  The rows go out 4096 at a time, each
block as one string joined from the columns' reprs.  :func:`read_table` reads
a file under these rules:

- a line starting with ``#`` is a comment; its ``key=value`` tokens are
  collected, a later token overriding an earlier one;
- the first non-comment line is the header when its first field is not a
  number; no later line may be one;
- each row's first two fields must be finite floats; further fields are
  ignored, blank lines are skipped, and a file holds at least one row.

The reader takes whole lines about 256 KiB at a time, as the source splits
them.  A block of rows that are each two numbers around one comma, with no
space, ``nan``, ``inf`` or other character, is parsed by one numpy call, which
reads each number as ``float()`` does.  Any other block (the leading comments
and header, a blank or comment line, a bad row) goes through a loop over its
lines, which names a bad line; the next block is tried whole again.  Extra
memory is one block's lines, text and values.

A violation, or a file that cannot be read, raises
:class:`~shockcop.errors.TableFormatError` naming the file and, for a bad
line, its line number.  A byte that does not decode is reported even where a
bad line comes before it in the same block.  Both functions take a path or an
open text handle and leave a handle open.
"""

from __future__ import annotations

import array
import contextlib
import os
import warnings

import numpy as np

from .errors import TableFormatError

_WRITE_BLOCK = 4096  # rows
_READ_BLOCK = 1 << 18  # characters of whole lines read, and parsed, at a time
_NUMBER_BYTES = b"+-.0123456789Ee"  # all a field of a block parsed whole may hold


def write_table(target, comment: str, header: str, columns) -> None:
    """Write ``# comment``, the ``header`` row, then row i of the equal-length ``columns``."""
    write_blocks(target, comment, header, [columns])


def write_blocks(target, comment: str, header: str, blocks) -> None:
    """:func:`write_table` of the rows of each item of ``blocks`` (its columns) in turn.

    A column is numbers, written as the ``repr`` of their float64, or a list of
    str, each written as is: a caller that repeats a value formats it once.
    """
    with _opened(target, "w") as fh:
        fh.write(f"# {comment}\n{header}\n")
        for columns in map(list, blocks):
            row = ",".join(["{}"] * len(columns)) + "\n"
            # a block at a time bounds the Python floats and text alive at once
            for start in range(0, len(columns[0]), _WRITE_BLOCK):
                texts = (_texts(c[start : start + _WRITE_BLOCK]) for c in columns)
                fh.write("".join(map(row.format, *texts)))


def _texts(column):
    """The rows of a column as text: a list of str as is, numbers as float64 reprs."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    return map(repr, np.asarray(column, dtype=float).tolist())


def read_table(source) -> tuple[dict[str, str], list[str] | None, np.ndarray]:
    """The comments' ``key=value`` tokens, the header's field names (None without
    a header) and the rows' first two fields as an (n, 2) float array.

    Rows are parsed a block at a time where a block is all well-formed rows (see
    the module docstring); the values, and every error but an undecodable
    byte's, are those of reading line by line.
    """
    name = source_name(source)
    meta: dict[str, str] = {}
    header = None
    values = array.array("d")  # the rows' fields, flat
    skipped = []  # line numbers of blank, comment and header lines
    read = 0  # lines read so far

    def read_lines(lines) -> None:
        nonlocal header, read
        for lineno, line in enumerate(lines, start=read + 1):
            line = line.strip()
            if not line or line[0] == "#":
                meta.update(t.split("=", 1) for t in line[1:].split() if "=" in t)
                skipped.append(lineno)
                continue
            fields = line.split(",")
            try:
                values.extend((float(fields[0]), float(fields[1])))
            except (IndexError, ValueError):
                if values or header is not None or _is_number(fields[0]):
                    raise TableFormatError(f"{name}:{lineno}: bad row {line!r}") from None
                header = [f.strip() for f in fields]
                skipped.append(lineno)
        read += len(lines)

    try:
        with _opened(source, "r") as fh:
            for lines in iter(lambda: fh.readlines(_READ_BLOCK), []):
                head = 0
                while not values and head < len(lines):  # comments and header, to the first row
                    read_lines(lines[head : head + 1])
                    head += 1
                rows = lines[head:]
                block = _block_values(rows)
                if block is None:
                    read_lines(rows)
                else:
                    values.frombytes(block.data.cast("B"))
                    read += len(rows)
    except (OSError, UnicodeDecodeError) as exc:
        raise TableFormatError(f"{name}: cannot read: {exc}") from exc
    if not values:
        raise TableFormatError(f"{name}: no data rows")
    table = np.frombuffer(values).reshape(-1, 2)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        lineno = int(np.argmin(finite)) + 1  # its number among the rows, then among all lines
        for other in skipped:
            if other <= lineno:
                lineno += 1
        raise TableFormatError(f"{name}:{lineno}: value is not a finite number")
    return meta, header, table


def _block_values(lines) -> np.ndarray | None:
    """The two fields of each of ``lines``, flat, parsed by one numpy call; None
    unless each line is two numbers around one comma and nothing else.

    numpy reads a number with the parser of ``float()``; with no space in the
    text, it cannot take a blank field for a number (it reads -1.0 there).  A
    field that overflows to inf is left to :func:`read_table`'s finiteness check,
    as a row of the line loop is.  The text is checked for ASCII before it is
    encoded: a handle that escapes undecodable bytes yields lone surrogates.
    """
    text = "".join(lines)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"  # the last line of a file without a final newline
    if not text.isascii():
        return None
    raw = text.encode()
    if raw.translate(None, _NUMBER_BYTES) != b",\n" * len(lines):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 warns where it stops early
        try:
            fields = np.fromstring(raw[:-1].replace(b"\n", b","), sep=",")
        except (ValueError, DeprecationWarning):
            return None
    return fields if fields.size == 2 * len(lines) else None


def source_name(source) -> str:
    """How a message names ``source``: its path, or the handle's ``name`` if any."""
    return os.fsdecode(source) if _is_path(source) else getattr(source, "name", "<stream>")


def _is_path(target) -> bool:
    return isinstance(target, (str, bytes, os.PathLike))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@contextlib.contextmanager
def _opened(target, mode: str):
    """An open handle on a path, closed on exit, or the given handle as is."""
    if not _is_path(target):
        yield target
        return
    with open(target, mode, newline="" if mode == "w" else None) as fh:
        yield fh
