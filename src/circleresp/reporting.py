"""CSV emission for experiment reports.

CSV output is RFC-4180 style (CRLF line endings, header row) with floats
printed to 17 significant digits, so files are byte-stable across runs and
round-trip exactly through ``float()``.  The experiment kinds whose reports
it writes are declared and validated in ``cli.EXPERIMENTS``; each runner
there owns the schema of its CSVs, next to the rows it writes under it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_csv(rows: Sequence[Sequence], schema: Sequence[str], path) -> None:
    """Write rows under the given header; every row must match the schema width."""
    path = Path(path)
    schema = list(schema)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(schema)
        for index, row in enumerate(rows):
            row = list(row)
            if len(row) != len(schema):
                raise ValueError(
                    f"row {index} has {len(row)} cells, schema has {len(schema)}"
                )
            writer.writerow([format_value(cell) for cell in row])
