"""Deterministic CSV and JSON emitters.

Table cells go through :func:`fmt`'s rules (scientific notation, 12
significant digits, '.' decimal separator; bools as JSON literals, ints
exact), so identical inputs produce byte-identical CSV and JSON:
:func:`csv_text`, :func:`json_table`, :func:`json_cells` (the
``dump-snapshots`` frames) and ``decoherence.surface_to_csv``. Two emitters
write float ``repr`` instead, as the json module does:
``decoherence.surface_to_json`` and ``budget.BudgetReport.to_json``. The
CLI never does arithmetic of its own; it formats library results, computed
in order with no parallel runner.

A column of floats, or a whole float matrix such as a sweep's table, is
formatted in one numpy pass by :func:`float_cells`, which writes exactly the
bytes of ``f"{v:.11e}"``; docs/physics-notes.md ("Why the table bytes cannot
move") gives the error bound that makes it exact.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

_FLOAT_TYPES = {float, np.float64}

_K = 300                          # the power-of-ten table spans 1e-300 .. 1e300
# correctly rounded powers of ten: float() of a decimal literal rounds once
_POW10 = np.array([float(f"1e{k}") for k in range(-_K, _K + 1)])


def _words(strings) -> np.ndarray:
    """Each string of at most 4 ASCII bytes, NUL-padded, as one uint32 word."""
    return np.array([s.encode() for s in strings], dtype="S4").view("<u4")


# One cell is five words: [sign d0 . d1] [d2..d5] [d6..d9] [d10 d11 e sign] [exponent]
_LEAD = _words(f"\0{i // 10}.{i % 10}" for i in range(100))
_PAIR = np.array([f"{i:02d}".encode() for i in range(100)], dtype="S2").view("<u2").astype("<u4")
_QUAD = (_PAIR[:, None] | _PAIR << 16).ravel()
_TAIL = _words(f"{i % 100:02d}e{'+-'[i // 100]}" for i in range(200))
_EXPONENT = _words(f"{i:02d}" for i in range(_K + 1))

CELL_WIDTH = 20                   # bytes per float cell; the longest is 19
TIE_WINDOW = 1e-3                 # scaled values this close to a half go through f-strings


def fmt(value) -> str:
    """Canonical cell format: 12 significant digits, scientific notation."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.11e}"


def float_cells(values) -> np.ndarray:
    """The bytes of ``f"{v:.11e}"`` for each float, as an (n, CELL_WIDTH) uint8 matrix.

    Each row holds one cell, NUL-padded. The decimal exponent comes from
    ``frexp``; the value is scaled into [1e11, 1e12) by a correctly rounded
    power of ten and rounded to the 12-digit mantissa. A cell whose scaled
    value lies within ``TIE_WINDOW`` of a half, or that is zero, non-finite
    or outside [1e-280, 1e280], is formatted by ``f"{v:.11e}"`` itself.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    exact = (a >= 1e-280) & (a <= 1e280)
    a[~exact] = 1.0
    e, scaled = _decimal_scale(a)
    mantissa = np.rint(scaled)
    exact &= ((scaled >= 1e11) & (scaled < 1e12)
              & (np.abs(scaled - mantissa) < 0.5 - TIE_WINDOW))
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    e += carry
    hi, lo = np.divmod(mantissa.astype(np.int64), 10**6)
    words = np.empty((v.size, CELL_WIDTH // 4), "<u4")
    words[:, 0] = _LEAD[hi // 10**4] + np.signbit(v) * ord("-")
    words[:, 1] = _QUAD[hi % 10**4]
    words[:, 2] = _QUAD[lo // 100]
    words[:, 3] = _TAIL[lo % 100 + 100 * (e < 0)]
    words[:, 4] = _EXPONENT[np.abs(e)]
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        cells[slow] = _string_cells([f"{x:.11e}" for x in v[slow].tolist()], CELL_WIDTH)
    return cells


def _decimal_scale(a):
    """(e, a * 10**(11 - e)) for a in [1e-280, 1e280], e the decimal exponent of a.

    The scaled value carries two roundings, the table's and the product's:
    it is within 2**-52 (relative) of the exact a * 10**(11 - e), which lies
    in [1e11 (1 - 2**-53), 1e12 (1 + 2**-53)); it leaves [1e11, 1e12) only
    when a is within an ulp of a power of ten.
    """
    # floor(log10(2**(E-1))) by 78913 / 2**18 ~ log10(2); the table corrects it by one
    e = ((np.frexp(a)[1] - 1) * 78913) >> 18
    e += a >= _POW10[e + (_K + 1)]
    return e, a * _POW10[(_K + 11) - e]


def _string_cells(strings, width=0) -> np.ndarray:
    """ASCII strings as an (n, w) NUL-padded uint8 matrix, w >= ``width``."""
    cells = np.array(strings, dtype=f"S{width}" if width else "S")
    return cells.view(np.uint8).reshape(len(strings), -1)


def _table_cells(rows) -> list[np.ndarray]:
    """Each column's cells by fmt's rules: a float matrix in one
    :func:`float_cells` call, a float column in one, any other cell by cell."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return list(float_cells(rows.T).reshape(rows.shape[1], len(rows), CELL_WIDTH))
    return [float_cells(c) if set(map(type, c)) <= _FLOAT_TYPES
            else _string_cells([fmt(v) for v in c]) for c in zip(*rows)]


def _join_rows(columns, prefix: str, sep: str, suffix: str) -> str:
    """prefix + cell + sep + cell ... + suffix for every row, NULs dropped."""
    n = len(columns[0])
    parts = [prefix]
    for cells in columns:
        parts += [cells, sep]
    parts[-1] = suffix
    parts = [np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (n, len(p)))
             if isinstance(p, str) else p for p in parts]
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def csv_columns(header, columns) -> str:
    """CSV of a header line and cell matrices, one per column."""
    head = ",".join(str(h) for h in header) + "\n"
    return head + _join_rows(columns, "", ",", "\n") if columns else head


def csv_text(header, rows) -> str:
    return csv_columns(header, _table_cells(rows))


def json_table(header, rows, metadata: dict) -> str:
    """JSON mirror of a CSV table: same cells, plus run metadata.

    The bytes are those of ``json.dumps(..., sort_keys=True, indent=1)`` of
    the table with its cells as strings; "rows" sorts last, so the rows are
    spliced in at the end of the document.
    """
    doc = json.dumps({"columns": list(header), "rows": [], "metadata": metadata},
                     sort_keys=True, indent=1)
    if not len(rows):
        return doc
    body = _join_rows(_table_cells(rows),
                      '  [\n   "', '",\n   "', '"\n  ],\n')
    return doc[:-len("[]\n}")] + "[\n" + body[:-2] + "\n ]\n}"


def json_cells(values, depth: int) -> str:
    """``[fmt(v) for v in values]`` of a float array, as ``json.dumps(indent=1)``
    prints it ``depth`` levels deep."""
    if not len(values):
        return "[]"
    body = _join_rows([float_cells(values)], " " * (depth + 1) + '"', "", '",\n')
    return "[\n" + body[:-2] + "\n" + " " * depth + "]"


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
