"""Compare two ``ajclab all`` output directories, ignoring what timing moves.

- JSON files are compared with every ``timings_ms``, ``runtime_ms`` and
  ``output_dir`` key dropped at any depth; key order counts, and a
  difference is named by its path in the document (``$.files.y``).
- ``*.field`` files, and any other file, are compared by bytes.
- ``sweep.csv`` is compared without its ``runtime_ms`` column.
- A difference between two finite floats carries its size, ``(rel X)``:
  |a - b| / max(|a|, |b|), and for a CSV row whose differing cells all
  read as finite floats, the largest over those cells.  Any other
  difference (int against float, keys, bytes) is named only.
- Files present on one side only are listed.

Prints one line per difference and exits 1 if there is any, 0 otherwise.
Exits 2, naming the argument, unless both are directories that hold at
least one file, so a run that wrote nothing does not pass.

Usage: ``python3 tools/compare_outputs.py A B``
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

IGNORED_KEYS = {"timings_ms", "runtime_ms", "output_dir"}
IGNORED_COLUMNS = {"sweep.csv": "runtime_ms"}


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _size(pairs) -> str:
    """`` (rel X)`` for the largest relative change over the float pairs, or
    "" unless there is a pair and every value is a finite float."""
    if not pairs or not all(type(v) is float and math.isfinite(v) for pair in pairs for v in pair):
        return ""
    rel = max(abs(x - y) / max(abs(x), abs(y)) if x or y else 0.0 for x, y in pairs)
    return f" (rel {rel:.2e})"


def _floats(cells) -> list[tuple[float, float]]:
    """The differing cells of a CSV row pair as floats, or [] if one does
    not read as a float."""
    try:
        return [(float(x), float(y)) for x, y in cells if x != y]
    except ValueError:
        return []


def _json_diffs(a, b, where: str = "$"):
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a = [k for k in a if k not in IGNORED_KEYS]
        keys_b = [k for k in b if k not in IGNORED_KEYS]
        for k in keys_a:
            if k not in b:
                yield f"{where}.{k}: only in A"
        for k in keys_b:
            if k not in a:
                yield f"{where}.{k}: only in B"
        common_a = [k for k in keys_a if k in b]
        if common_a != [k for k in keys_b if k in a]:
            yield f"{where}: key order differs"
        for k in common_a:
            yield from _json_diffs(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, f"{where}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        # through json.dumps, so 1 and 1.0 differ and NaN equals NaN
        yield f"{where}: {_short(a)} != {_short(b)}{_size([(a, b)])}"


def _csv_rows(path: Path) -> list[list[str]]:
    rows = list(csv.reader(path.read_text().splitlines()))
    dropped = IGNORED_COLUMNS.get(path.name)
    if not rows or dropped not in rows[0]:
        return rows
    col = rows[0].index(dropped)
    return [row[:col] + row[col + 1:] for row in rows]


def file_diffs(a: Path, b: Path):
    """The differences between two files of the same relative name."""
    if a.suffix == ".json":
        yield from _json_diffs(json.loads(a.read_text()), json.loads(b.read_text()))
    elif a.name in IGNORED_COLUMNS:
        rows_a, rows_b = _csv_rows(a), _csv_rows(b)
        if len(rows_a) != len(rows_b):
            yield f"{len(rows_a)} rows != {len(rows_b)} rows"
        for i, (x, y) in enumerate(zip(rows_a, rows_b)):
            if x != y:
                pairs = _floats(zip(x, y)) if len(x) == len(y) else []
                yield f"row {i}: {x} != {y}{_size(pairs)}"
    elif a.read_bytes() != b.read_bytes():
        yield "bytes differ"


def compare_dirs(a: Path, b: Path) -> list[str]:
    """One line per difference between output directories ``a`` and ``b``."""
    names_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    lines = [f"only in A: {name}" for name in sorted(names_a - names_b)]
    lines += [f"only in B: {name}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        lines += [f"{name}: {diff}" for diff in file_diffs(a / name, b / name)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    for arg in argv:
        if not (Path(arg).is_dir() and any(p.is_file() for p in Path(arg).rglob("*"))):
            print(f"{arg}: not a directory that holds a file", file=sys.stderr)
            return 2
    lines = compare_dirs(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
