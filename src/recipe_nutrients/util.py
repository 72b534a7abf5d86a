"""Small shared helpers: decimal formatting, atomic file writes, and the reading
of every input file, as utf-8 json (:func:`read_json`) or json lines
(:func:`iter_jsonl`) with no byte-order mark; a loader checks its fields in a
:class:`checked` scope, so a bad file is one ValueError that starts with its
path. The json-lines reader and the record loaders each enter one scope for
every line or record, and format a line's or record's name only when it
fails."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO


def format_decimal(value: float) -> str:
    """Format a number with half-up rounding at two decimals.

    Rounding operates on the shortest decimal representation of the float
    (``repr``), so 1.005 renders as "1.01" rather than falling victim to its
    binary representation.
    """
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


class checked:
    """Raise any input error of the block (bad text or json, nesting too deep, a bad
    field, a csv field past csv's size limit) as ``ValueError(f"{path}: {what}: {exc}")``.

    ``what`` may instead be a function that returns that text, called only when
    an error is raised. A scope keeps nothing between blocks, so a loop can
    make one and enter it for each record, naming the record only if it fails.
    """

    __slots__ = ("path", "what")

    def __init__(self, path: str | Path, what: str | Callable[[], str]) -> None:
        self.path, self.what = path, what

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, (LookupError, TypeError, ValueError, ArithmeticError,
                            AttributeError, RecursionError, csv.Error)):
            what = self.what() if callable(self.what) else self.what
            raise ValueError(f"{self.path}: {what}: {exc}") from exc


def read_json(path: str | Path, what: str) -> tuple[Any, bytes]:
    """The json value held in the file at ``path``, and the file's bytes."""
    data = Path(path).read_bytes()
    with checked(path, what):
        return json.loads(data.decode("utf-8")), data


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a json-lines file (lines end at ``\\n``) of json objects, skipping blank
    lines; ValueError names the file and the line of the first bad one."""
    return list(iter_jsonl(path))


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """:func:`load_jsonl`'s rows one at a time, each line read as its row is taken."""
    with open(path, "rb") as fh:
        yield from parse_jsonl(fh, path)


def parse_jsonl(lines: Iterable[bytes], source: str | Path) -> Iterator[dict[str, Any]]:
    """:func:`load_jsonl`'s rows of ``lines``, one at a time; errors name ``source``."""
    line_scope = checked(source, lambda: f"line {lineno}")
    for lineno, line in enumerate(lines, 1):
        with line_scope:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            row = json.loads(text)
            if not isinstance(row, dict):
                raise ValueError("not a json object")
        yield row


_held: ContextVar[list[tuple[Path, Path]] | None] = ContextVar("_held", default=None)


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open a text file that replaces ``path`` only once the block completes.

    The text goes to a temporary file in the same directory, which is synced
    and then renamed over ``path`` with ``os.replace`` (inside
    :func:`replace_together`, once that block completes); if the block
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    held = _held.get()
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if held is None:
            os.replace(tmp, path)
        else:
            held.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def replace_together() -> Iterator[None]:
    """Rename the files of the :func:`atomic_write` blocks inside this one together.

    The renames wait for this block and run in the order written; if it raises,
    every target keeps its old contents. Only a crash between renames splits them.
    """
    held: list[tuple[Path, Path]] = []
    token = _held.set(held)
    try:
        yield
        for tmp, path in held:
            os.replace(tmp, path)
    finally:
        _held.reset(token)
        for tmp, _ in held:
            tmp.unlink(missing_ok=True)


def dump_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> int:
    """Write dict rows as json-lines, atomically. Returns the number of rows written."""
    n = 0
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n
