"""The one reader of the package's CSV inputs: joints, selection marginals,
tabulated envelopes and weighted samples.

Rules: the first line is a header; blank rows are skipped; every other row
has exactly as many cells as the header; every error names the file and,
where there is one, the line.  What the columns mean, and which values are
valid, is up to the caller.
"""

from __future__ import annotations

import csv
from typing import List

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
