"""The frame text format.

A frame is written as its synthesis matrix: a "rows d" line, a "cols n"
line (d, n >= 1), then d lines of n entries printed as "%.17g", which
round-trips doubles exactly.  Blank lines and '#' comments are ignored on
input.
"""

from __future__ import annotations

import numpy as np

from .frames import Frame
from .graphs import text_lines


class MatrixFormatError(ValueError):
    pass


def frame_to_text(f: Frame) -> str:
    row_format = " ".join(["%.17g"] * f.n)
    lines = [f"rows {f.d}", f"cols {f.n}"]
    lines.extend(row_format % tuple(row) for row in f.synthesis.tolist())
    return "\n".join(lines) + "\n"


def frame_from_text(text: str) -> Frame:
    rows = text_lines(text)
    if len(rows) < 2 or not rows[0].startswith("rows ") or not rows[1].startswith("cols "):
        raise MatrixFormatError("matrix text must start with 'rows r' and 'cols c'")
    try:  # each header line is its key and exactly one integer
        (r,), (c,) = (map(int, line.split()[1:]) for line in rows[:2])
    except ValueError:
        raise MatrixFormatError("bad rows/cols header") from None
    if min(r, c) < 1:
        raise MatrixFormatError(f"need at least one row and column, got {r} x {c}")
    body = rows[2:]
    if len(body) != r:
        raise MatrixFormatError(f"expected {r} data rows, found {len(body)}")
    data = []
    for line in body:
        vals = line.split()
        if len(vals) != c:
            raise MatrixFormatError(f"expected {c} entries per row, got {len(vals)}")
        try:
            data.append(list(map(float, vals)))
        except ValueError:
            raise MatrixFormatError(f"bad numeric entry in {line!r}") from None
    return Frame(np.array(data, dtype=float))
