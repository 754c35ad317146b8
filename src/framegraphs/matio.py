"""Shared matrix / frame serialization.

Structured text: a "rows r" line, a "cols c" line (r, c >= 1, as for a
Frame), then r lines of c entries printed as "%.17g", which round-trips
doubles exactly.  Blank lines and '#' comments are ignored on input.
"""

from __future__ import annotations

import numpy as np

from .frames import Frame
from .graphs import text_lines


class MatrixFormatError(ValueError):
    pass


def matrix_to_text(mat: np.ndarray) -> str:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or min(mat.shape) < 1:
        raise MatrixFormatError(
            f"expected a 2-d matrix with at least one row and column, got shape {mat.shape}"
        )
    row_format = " ".join(["%.17g"] * mat.shape[1])
    lines = [f"rows {mat.shape[0]}", f"cols {mat.shape[1]}"]
    lines.extend(row_format % tuple(row) for row in mat.tolist())
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
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
    return np.array(data, dtype=float)


def frame_to_text(f: Frame) -> str:
    return matrix_to_text(f.synthesis)


def frame_from_text(text: str) -> Frame:
    return Frame(matrix_from_text(text))
