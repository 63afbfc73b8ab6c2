"""The sample budget of frontlab's blocked evaluations, the CSV row writer
that formats within it, and the one text form of a summary or verdict value.

SAMPLE_BLOCK is the most samples one block holds: a block of the spectral
propagator build or of the semigroup envelope (64 KiB per complex array),
or the values write_rows formats in one % operation.  It bounds their
temporaries on any input size, and is a module constant, not an option.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SAMPLE_BLOCK", "format_value", "write_rows"]

SAMPLE_BLOCK = 4096


def write_rows(fh, columns: Sequence, row_format: str) -> None:
    """Rows of equal-length float columns to fh, each as row_format % row.

    One % operation formats a block of rows of about SAMPLE_BLOCK values.
    "%.17g" % x is f"{x:.17g}" for every float, nan, +-inf and -0.0 included.
    """
    step = max(1, SAMPLE_BLOCK // len(columns))
    for lo in range(0, len(columns[0]), step):
        block = np.column_stack([col[lo:lo + step] for col in columns])
        fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def format_value(value) -> str:
    """value as summary.txt and verdict.txt write it: a bool in lower case,
    a float to 17 significant digits, a tuple as its entries joined by
    ", ", anything else by str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(format_value(v) for v in value)
    return str(value)
