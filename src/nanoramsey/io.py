"""Deterministic CSV and JSON emitters.

Every number leaving the package goes through :func:`fmt` (scientific
notation, 12 significant digits, '.' decimal separator), so identical inputs
produce byte-identical CSV and JSON. The CLI never does arithmetic of its
own; it formats library results, computed in order with no parallel runner.
"""
from __future__ import annotations

import hashlib
import json


def fmt(value) -> str:
    """Canonical cell format: 12 significant digits, scientific notation."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.11e}"


def csv_text(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def json_table(header, rows, metadata: dict) -> str:
    """JSON mirror of a CSV table: same cells, plus run metadata."""
    payload = {
        "columns": list(header),
        "rows": [[fmt(v) for v in row] for row in rows],
        "metadata": metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

