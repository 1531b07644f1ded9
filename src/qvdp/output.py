"""Deterministic artifact serialization: 17-digit floats, CSV, JSON, SVG.

Every number is written with 17 significant digits, which round-trips
64-bit floats exactly, so identical inputs produce byte-identical files.
The SVG writer is a fixed-viewport convenience rendering; CSV and JSON are
the interfaces the tests pin down.

CSV is streamed: :func:`csv_lines` renders one line per row as the rows
arrive, and :func:`write_lines` sends each line on at once, so an artifact
is never held whole in memory.  A file target is written under a temporary
name next to it and renamed into place only once every line is out, so a
run that fails midway leaves no file (and an existing one untouched).  On
stdout the lines written before a failure stay written.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["fmt", "dumps_json", "csv_lines", "rows_to_csv", "write_lines",
           "PortraitSVG"]


def fmt(x) -> str:
    """17-significant-digit text of a float (exact round trip)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a number: {x!r}")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ValueError("non-finite numbers have no serialized form")
    return format(x, ".17g")


def _json_value(obj, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True or obj is False:
        pieces.append("true" if obj else "false")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"') \
            .replace("\n", "\\n").replace("\t", "\\t")
        pieces.append(f'"{escaped}"')
    elif isinstance(obj, (int, float)):
        pieces.append(fmt(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings: {k!r}")
            pieces.append(f'{pad}  "{k}": ')
            _json_value(v, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, v in enumerate(obj):
            pieces.append(pad + "  ")
            _json_value(v, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"unserializable value: {obj!r}")


def dumps_json(obj) -> str:
    """Deterministic JSON text (insertion-ordered keys, LF, 17g floats)."""
    pieces: list = []
    _json_value(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _csv_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, float)):
        return fmt(cell)
    raise TypeError(f"unserializable CSV cell: {cell!r}")


def csv_lines(header: Sequence[str],
              rows: Iterable[Sequence]) -> Iterator[str]:
    """The header, then one LF-terminated CSV line per row as rows arrive.

    Numeric cells are rendered via :func:`fmt`, strings as they are.
    """
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with LF terminators; numeric cells rendered via :func:`fmt`."""
    return "".join(csv_lines(header, rows))


def write_lines(path: Optional[str], lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` (stdout when None) as they are produced.

    A file appears, or is replaced, only after the last line is written:
    the lines go to a temporary file in the directory of the file ``path``
    names (through symlinks), which is renamed onto it on success and
    removed if producing or writing a line raises.  A path that exists but
    is no regular file, such as /dev/null or a pipe, is written in place.
    A path that cannot be opened, or an empty one, raises ValueError
    naming ``path``.
    """
    if path is None:
        sys.stdout.writelines(lines)
        return
    if not path:
        raise ValueError("cannot write '': the path is empty")
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    name = path if in_place else f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(name, "w" if in_place else "x", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    if in_place:
        with fh:
            fh.writelines(lines)
        return
    try:
        with fh:
            fh.writelines(lines)
        os.replace(name, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(name)
        raise


class PortraitSVG:
    """Fixed-viewport phase-portrait renderer.

    World coordinates map linearly onto a 600x600 canvas with y pointing
    up.  Default viewport is [-3, 3]^2; disk portraits use [-1.1, 1.1]^2
    with the equator circle drawn.
    """

    _SIZE = 600
    _COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f")

    def __init__(self, half_width: float = 3.0):
        self.half = half_width
        self._body: list[str] = []
        self._color_idx = 0

    def _px(self, x: float, y: float) -> tuple[float, float]:
        s = self._SIZE / (2.0 * self.half)
        return ((x + self.half) * s, (self.half - y) * s)

    def _points_attr(self, xy) -> str:
        return " ".join(
            f"{px:.2f},{py:.2f}" for px, py in (self._px(x, y) for x, y in xy))

    def polyline(self, xy):
        color = self._COLORS[self._color_idx % len(self._COLORS)]
        self._color_idx += 1
        self._body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.0" '
            f'points="{self._points_attr(xy)}"/>')

    def closed_curve(self, xy):
        self._body.append(
            f'<polygon fill="none" stroke="#000000" stroke-width="2.0" '
            f'points="{self._points_attr(xy)}"/>')

    def marker(self, x: float, y: float, stable: bool, saddle: bool = False):
        px, py = self._px(x, y)
        if saddle:
            self._body.append(
                f'<path d="M{px - 5:.2f},{py - 5:.2f} L{px + 5:.2f},{py + 5:.2f} '
                f'M{px - 5:.2f},{py + 5:.2f} L{px + 5:.2f},{py - 5:.2f}" '
                f'stroke="#000000" stroke-width="2"/>')
        else:
            fill = "#000000" if stable else "#ffffff"
            self._body.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="5" fill="{fill}" '
                f'stroke="#000000" stroke-width="1.5"/>')

    def circle(self, x: float, y: float, world_radius: float):
        px, py = self._px(x, y)
        r = world_radius * self._SIZE / (2.0 * self.half)
        self._body.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}" fill="none" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="4 3"/>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self._SIZE}" height="{self._SIZE}" '
                f'viewBox="0 0 {self._SIZE} {self._SIZE}">\n'
                f'<rect width="{self._SIZE}" height="{self._SIZE}" '
                f'fill="#ffffff"/>')
        return head + "\n" + "\n".join(self._body) + "\n</svg>\n"
