"""Frame text serialization."""

import numpy as np
import pytest
import reference_frames as reference

from framegraphs.constructions import diamond_frame, star_frame
from framegraphs.frames import Frame
from framegraphs.matio import MatrixFormatError, frame_from_text, frame_to_text


def _round_trip(mat):
    """The text of Frame(mat), once it has read back as mat, signed zeros too."""
    text = frame_to_text(Frame(mat))
    back = frame_from_text(text).synthesis
    assert np.array_equal(back, mat) and np.array_equal(np.signbit(back), np.signbit(mat))
    return text


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-8, 8, size=(4, 7))
    mat[0, :3] = -0.0, 5e-324, 1 / 3  # a signed zero, a subnormal, 17 digits
    _round_trip(mat)


def test_frame_round_trip_is_exact():
    for f in (diamond_frame(), star_frame(7, 4)):
        _round_trip(f.synthesis)


def test_comments_and_blank_lines_ignored():
    text = "# frame\nrows 1\n\ncols 2\n1 2  # data\n"
    assert np.array_equal(frame_from_text(text).synthesis, np.array([[1.0, 2.0]]))


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
        frame_from_text(bad)


def test_matrix_text_matches_reference():
    # Every entry below is finite, and each matrix spans its space, so it
    # is a frame; squares stay finite, so its frame operator does too.
    rng = np.random.default_rng(17)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16, 1e-5,
               123456789012345678.0, 1e150]
    mats = [np.array([special]), np.array([special, special[::-1]]), np.eye(1)]
    for r, c in rng.integers(1, 40, size=(20, 2)):
        wild = rng.standard_normal((r, c)) * 10.0 ** rng.integers(-150, 150, size=(r, c))
        # A scaled identity block makes every row span, whatever wild holds.
        mats.append(np.hstack([np.abs(wild).max() * np.eye(r), wild]))
    for mat in mats:
        assert _round_trip(mat) == reference.matrix_to_text(mat)
