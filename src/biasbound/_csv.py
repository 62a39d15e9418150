"""The one reader and the one writer of the package's CSV files.

``Table`` reads joints, selection marginals, tabulated envelopes and weighted
samples: the first line is a header; blank rows are skipped; every other row
has exactly as many cells as the header; every error names the file and,
where there is one, the line.  What the columns mean, and which values are
valid, is up to the caller.  ``write`` writes reports, sweeps, joints and
marginals: a finite float as ``repr(float(v))``, which reads back exactly,
any other float as ``nan``, None as an empty cell and anything else by
``str``; a cell holding a comma is quoted, and lines end with ``\n``.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, List, Sequence

import numpy as np


class Table:
    """A CSV input file: its header cells and its data rows (cells stripped)."""

    def __init__(self, path):
        self.path = path
        self.rows: List[List[str]] = []
        self._lines: List[int] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                self.header = [c.strip() for c in next(reader, [])]
                if not any(self.header):
                    raise ValueError(f"{path}: line 1: expected a header line")
                for row in reader:
                    cells = [c.strip() for c in row]
                    if not any(cells):
                        continue
                    if len(cells) != len(self.header):
                        raise ValueError(
                            f"{path}: line {reader.line_num}: row has {len(cells)} "
                            f"cells, header has {len(self.header)}")
                    self.rows.append(cells)
                    self._lines.append(reader.line_num)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:  # text is decoded in chunks: no line
                raise ValueError(f"{path}: {exc}") from None
        if not self.rows:
            raise ValueError(f"{path}: no data rows")

    def floats(self, start: int = 0) -> np.ndarray:
        """The cells from column ``start`` on, as a float array with one row
        per data row."""
        out = []
        for line, cells in zip(self._lines, self.rows):
            try:
                out.append([float(c) for c in cells[start:]])
            except ValueError:
                raise ValueError(f"{self.path}: line {line}: non-numeric entry") from None
        return np.array(out)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else "nan"
    return "" if value is None else str(value)


def write(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV text of a header line and data rows, by the rules above."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([header, *([_cell(v) for v in row] for row in rows)])
    return out.getvalue()
