"""Small shared helpers: decimal formatting, atomic file writes and json-lines I/O."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


def format_decimal(value: float) -> str:
    """Format a number with half-up rounding at two decimals.

    Rounding operates on the shortest decimal representation of the float
    (``repr``), so 1.005 renders as "1.01" rather than falling victim to its
    binary representation.
    """
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a json-lines file, skipping blank lines.

    Raises ValueError naming the offending line on malformed json.
    """
    return list(iter_jsonl(path))


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """:func:`load_jsonl`'s rows one at a time, each line read as its row is taken."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _json_rows(fh, path)


def parse_jsonl(lines: Iterable[str], source: str | Path) -> list[dict[str, Any]]:
    """Parse json-lines text, skipping blank lines.

    Raises ValueError naming ``source`` and the offending line on malformed
    json, or naming ``source`` alone where ``lines`` meet bytes that are not utf-8.
    """
    return list(_json_rows(lines, source))


def _json_rows(lines: Iterable[str], source: str | Path) -> Iterator[dict[str, Any]]:
    """The rows of json-lines text, as :func:`parse_jsonl` describes."""
    try:
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not json, or nested too deep
                raise ValueError(f"{source}: invalid json on line {lineno + 1}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{source}: line {lineno + 1} is not a json object")
            yield obj
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: not utf-8 text: {exc}") from None


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
