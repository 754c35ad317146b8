"""Matrix / frame text serialization."""

import numpy as np
import pytest
import reference_frames as reference

from framegraphs.constructions import diamond_frame, star_frame
from framegraphs.matio import (
    MatrixFormatError,
    frame_from_text,
    frame_to_text,
    matrix_from_text,
    matrix_to_text,
)


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-8, 8, size=(4, 7))
    assert np.array_equal(matrix_from_text(matrix_to_text(mat)), mat)


def test_frame_round_trip_is_exact():
    for f in (diamond_frame(), star_frame(7, 4)):
        g = frame_from_text(frame_to_text(f))
        assert np.array_equal(g.synthesis, f.synthesis)


def test_comments_and_blank_lines_ignored():
    text = "# frame\nrows 1\n\ncols 2\n1 2  # data\n"
    assert np.array_equal(matrix_from_text(text), np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [
    "",
    "rows 2\n1 2\n",
    "cols 2\nrows 1\n1 2\n",
    "rows 1\ncols 2\n1\n",
    "rows 2\ncols 1\n1\n",
    "rows 1\ncols 2\n1 x\n",
    "rows x\ncols 2\n1 2\n",
    "rows 1 junk\ncols 2\n1 2\n",
    "rows 1\ncols 2 3\n1 2\n",
    "rows 0\ncols 3\n",
    "rows 1\ncols 0\n",
    "rows -1\ncols 2\n",
])
def test_malformed_matrix_text(bad):
    with pytest.raises(MatrixFormatError):
        matrix_from_text(bad)


def test_matrix_to_text_rejects_non_2d():
    for shape in [(3,), (), (2, 2, 2), (2, 0), (0, 3), (0, 0)]:
        with pytest.raises(MatrixFormatError):
            matrix_to_text(np.zeros(shape))


def test_matrix_text_matches_reference():
    rng = np.random.default_rng(17)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1e16, 1e-5, 123456789012345678.0]
    mats = [np.array([special]), np.array(special).reshape(3, 4), np.eye(1)]
    mats += [rng.standard_normal((r, c)) * 10.0 ** rng.integers(-300, 300, size=(r, c))
             for r, c in rng.integers(1, 40, size=(20, 2))]
    for mat in mats:
        text = matrix_to_text(mat)
        assert text == reference.matrix_to_text(mat)
        assert np.array_equal(matrix_from_text(text), mat, equal_nan=True)
