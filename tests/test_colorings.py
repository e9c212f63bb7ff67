"""Colorings and their text form."""

import pytest

from qramsey.colorings import Coloring, ColoringError, serialize_coloring
from qramsey.windows import IntegerInterval


class TestColoring:
    def test_valid(self):
        w = IntegerInterval(1, 4)
        c = Coloring(w, [0, 1, 1, 0], 2)
        assert c.color_of(2) == 1

    def test_length_mismatch(self):
        with pytest.raises(ColoringError, match="window of size 4"):
            Coloring(IntegerInterval(1, 4), [0, 1], 2)

    def test_color_out_of_range(self):
        with pytest.raises(ColoringError, match="out of range"):
            Coloring(IntegerInterval(1, 3), [0, 1, 2], 2)
        with pytest.raises(ColoringError):
            Coloring(IntegerInterval(1, 3), [0, -1, 0], 2)

    def test_color_of_absent_element(self):
        c = Coloring(IntegerInterval(1, 3), [0, 0, 1], 2)
        with pytest.raises(ColoringError, match="not in window"):
            c.color_of(9)

    def test_at_least_one_color(self):
        with pytest.raises(ColoringError):
            Coloring(IntegerInterval(1, 1), [0], 0)


class TestText:
    def test_explicit_form(self):
        c = Coloring(IntegerInterval(1, 4), [0, 1, 0, 1], 2)
        assert serialize_coloring(c) == "int:1..4 r=2 [0,1,0,1]"
        assert repr(c) == "Coloring('int:1..4 r=2 [0,1,0,1]')"
