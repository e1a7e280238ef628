"""One format for every CSV table file the package reads or writes.

:func:`write_table` writes one ``# ...`` comment line, one header row and one
row per record, each value as the ``repr`` of its float64, so reading the
file back returns the values to the bit.  :func:`read_table` reads a file
under these rules:

- a line starting with ``#`` is a comment; its ``key=value`` tokens are
  collected, a later token overriding an earlier one;
- the first non-comment line is the header when its first field is not a
  number; no later line may be one;
- each row's first two fields must be finite floats; further fields are
  ignored, blank lines are skipped, and a file holds at least one row.

A violation, or a file that cannot be read, raises
:class:`~shockcop.errors.TableFormatError` naming the file and, for a bad
line, its line number.  Both functions take a path or an open text handle and
leave a handle open.
"""

from __future__ import annotations

import array
import contextlib
import os

import numpy as np

from .errors import TableFormatError

_WRITE_BLOCK = 4096  # rows


def write_table(target, comment: str, header: str, columns) -> None:
    """Write ``# comment``, the ``header`` row, then row i of the equal-length ``columns``."""
    write_blocks(target, comment, header, [columns])


def write_blocks(target, comment: str, header: str, blocks) -> None:
    """:func:`write_table` of the rows of each item of ``blocks`` (its columns) in turn."""
    with _opened(target, "w") as fh:
        fh.write(f"# {comment}\n{header}\n")
        for columns in blocks:
            columns = [np.asarray(c, dtype=float) for c in columns]
            row_format = ",".join(["%r"] * len(columns)) + "\n"
            # a block at a time bounds the Python floats alive at once
            for start in range(0, columns[0].size, _WRITE_BLOCK):
                block = zip(*(c[start : start + _WRITE_BLOCK].tolist() for c in columns))
                fh.writelines(row_format % row for row in block)


def read_table(source) -> tuple[dict[str, str], list[str] | None, np.ndarray]:
    """The comments' ``key=value`` tokens, the header's field names (None without
    a header) and the rows' first two fields as an (n, 2) float array."""
    name = source_name(source)
    meta: dict[str, str] = {}
    header = None
    values = array.array("d")  # the rows' fields, flat
    skipped = []  # line numbers of blank, comment and header lines
    try:
        with _opened(source, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
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
