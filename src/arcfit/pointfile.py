"""Text format for points and polylines: one `x y` pair per line, whitespace
separated, lines starting with `#` are comments."""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["parse_points", "read_points", "write_points"]

# Lines parsed per block: each block is split into tokens and converted to
# floats in one call, which bounds the memory held by the token lists.
_BLOCK = 1024


def _parse_lines(lines, first_lineno: int) -> list[tuple[float, float]]:
    """The points on lines numbered from first_lineno, one at a time; raises
    ValueError naming the first malformed line."""
    points = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return points


def _parse_block(lines, first_lineno: int) -> np.ndarray:
    parts = list(map(str.split, lines))
    if not all(len(p) == 2 for p in parts):
        # str.split and str.strip agree on whitespace, so a line is blank or
        # a comment exactly when its first token is missing or starts with #
        parts = [p for p in parts if p and p[0][0] != "#"]
    if all(len(p) == 2 for p in parts):
        try:
            # numpy converts each token as float() does
            return np.array(list(chain.from_iterable(parts)),
                            dtype=float).reshape(-1, 2)
        except ValueError:
            pass
    # A block refused above (a bad line, or a two-token comment among
    # two-token lines) goes through the line loop, which names the bad line.
    return np.array(_parse_lines(lines, first_lineno),
                    dtype=float).reshape(-1, 2)


def parse_points(text: str) -> np.ndarray:
    """The points of a point file's text as an (n, 2) float array; raises
    ValueError naming the first malformed line."""
    lines = text.splitlines()
    blocks = [_parse_block(lines[lo:lo + _BLOCK], lo + 1)
              for lo in range(0, len(lines), _BLOCK)]
    return np.concatenate(blocks) if blocks else np.empty((0, 2))


def read_points(path) -> np.ndarray:
    return parse_points(Path(path).read_text(encoding="utf-8"))


def write_points(path, points) -> None:
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
