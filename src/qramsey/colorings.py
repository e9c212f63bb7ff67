"""Colorings of a window: dense color arrays indexed by window position.

Text format: ``"<window-spec> r=<colors> [c0,c1,...]"``, for example
``"int:1..4 r=2 [0,1,0,1]"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .windows import Window


class ColoringError(ValueError):
    pass


class Coloring:
    __slots__ = ("window", "colors", "r")

    def __init__(self, window: Window, colors: Sequence[int], r: int) -> None:
        colors = tuple(colors)
        if r < 1:
            raise ColoringError("need at least one color")
        if len(colors) != window.size():
            raise ColoringError(
                f"{len(colors)} colors for a window of size {window.size()}"
            )
        bad = next((c for c in colors if not 0 <= c < r), None)
        if bad is not None:
            raise ColoringError(f"color {bad} out of range 0..{r - 1}")
        self.window = window
        self.colors = colors
        self.r = r

    def color_of(self, q: Fraction | int) -> int:
        i = self.window.index_of(q)
        if i is None:
            raise ColoringError(f"{q} not in window {self.window.spec_string()}")
        return self.colors[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.window == other.window
            and self.colors == other.colors
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash((self.window, self.colors, self.r))

    def __repr__(self) -> str:
        return f"Coloring({serialize_coloring(self)!r})"


def serialize_coloring(coloring: Coloring) -> str:
    body = ",".join(str(c) for c in coloring.colors)
    return f"{coloring.window.spec_string()} r={coloring.r} [{body}]"
