"""Colorings of a window: dense color arrays indexed by window position."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .windows import Window


def check_colors(r: int) -> None:
    """Reject a color count below one."""
    if r < 1:
        raise ValueError(f"need at least one color, got r={r}")


class Coloring:
    __slots__ = ("window", "colors", "r")

    def __init__(self, window: Window, colors: Sequence[int], r: int) -> None:
        colors = tuple(colors)
        check_colors(r)
        if len(colors) != window.size():
            raise ValueError(f"{len(colors)} colors for a window of size {window.size()}")
        bad = next((c for c in colors if not 0 <= c < r), None)
        if bad is not None:
            raise ValueError(f"color {bad} out of range 0..{r - 1}")
        self.window = window
        self.colors = colors
        self.r = r

    def color_of(self, q: Fraction | int) -> int:
        i = self.window.index_of(q)
        if i is None:
            raise ValueError(f"{q} not in window {self.window.spec_string()}")
        return self.colors[i]
