"""Colorings of a window."""

import pytest

from qramsey.colorings import Coloring
from qramsey.windows import parse_window


class TestColoring:
    def test_valid(self):
        w = parse_window("int:1..4")
        c = Coloring(w, [0, 1, 1, 0], 2)
        assert c.color_of(2) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^2 colors for a window of size 4$"):
            Coloring(parse_window("int:1..4"), [0, 1], 2)

    def test_color_out_of_range(self):
        with pytest.raises(ValueError, match="^color 2 out of range 0..1$"):
            Coloring(parse_window("int:1..3"), [0, 1, 2], 2)
        with pytest.raises(ValueError, match="^color -1 out of range 0..1$"):
            Coloring(parse_window("int:1..3"), [0, -1, 0], 2)

    def test_color_of_absent_element(self):
        c = Coloring(parse_window("int:1..3"), [0, 0, 1], 2)
        with pytest.raises(ValueError, match="^9 not in window int:1..3$"):
            c.color_of(9)

    def test_at_least_one_color(self):
        with pytest.raises(ValueError, match="^need at least one color, got r=0$"):
            Coloring(parse_window("int:1..1"), [0], 0)
