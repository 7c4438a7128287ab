"""Deterministic CSV and JSON emitters.

Table cells go through :func:`fmt`'s rules (scientific notation, 12
significant digits, '.' decimal separator; bools as JSON literals, ints
exact), so identical inputs produce byte-identical CSV and JSON:
:func:`csv_text`, :func:`json_table`, the ``dump-snapshots`` frames and
``decoherence.surface_to_csv``. ``decoherence.surface_to_json`` and
``budget.BudgetReport.to_json`` write float ``repr`` instead, as the json
module does. The CLI never does arithmetic of its own; it formats library
results, computed in order with no parallel runner.

A float matrix, such as a sweep's table, is formatted in one numpy pass by
:func:`float_cells`, which writes exactly the bytes of ``f"{v:.11e}"``;
docs/physics-notes.md ("Why the table bytes cannot move") gives the error
bound that makes it exact. Every JSON document comes from
:func:`json_document`: ``json.dumps(..., sort_keys=True, indent=1)`` of a
payload whose numpy arrays, cell strings or floats, are laid out in numpy.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

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
        slow_cells = np.array([f"{x:.11e}" for x in v[slow].tolist()], dtype=f"S{CELL_WIDTH}")
        cells[slow] = slow_cells.view(np.uint8).reshape(-1, CELL_WIDTH)
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


def fmt_cells(values) -> np.ndarray:
    """``fmt`` of each float as a byte string (a NUL-padded :func:`float_cells`
    row), in an array of the values' shape."""
    values = np.asarray(values, dtype=np.float64)
    return float_cells(values).view(f"S{CELL_WIDTH}").reshape(values.shape)


def _table_cells(rows) -> np.ndarray:
    """A float matrix or row tuples by fmt's rules, as an (n, m) byte-string
    array (empty if there are no rows): the matrix in one :func:`fmt_cells`
    call, the tuples cell by cell."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return fmt_cells(rows)
    return np.array([[fmt(v) for v in row] for row in rows], dtype="S")


def _join_rows(cells, prefix: str, sep: str, suffix: str, between: str = "") -> str:
    """prefix + cell + sep + cell ... + suffix for each row of an (n, m)
    byte-string array, rows separated by ``between``, NULs dropped."""
    if not cells.size:
        return ""
    n, m = cells.shape
    head, sep, tail = (np.broadcast_to(np.frombuffer(t.encode(), np.uint8), (n, len(t)))
                       for t in (prefix, sep, suffix + between))
    columns = cells.view((np.uint8, (cells.dtype.itemsize,)))
    parts = [head, *(part for j in range(m) for part in (columns[:, j], sep))]
    parts[-1] = tail
    joined = np.concatenate(parts, axis=1)
    joined[-1, joined.shape[1] - len(between):] = 0
    return joined.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(header, rows) -> str:
    return ",".join(str(h) for h in header) + "\n" + _join_rows(_table_cells(rows), "", ",", "\n")


def json_table(header, rows, metadata: dict) -> str:
    """JSON mirror of a CSV table: the same cells as strings, plus run metadata."""
    return json_document({"columns": list(header), "rows": _table_cells(rows),
                          "metadata": metadata})


_MARKER = "\0ndarray\0"          # json.dumps writes _PLACE where an array goes
_PLACE = json.dumps(_MARKER)


def json_document(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=1)`` with each ndarray
    written as json writes its ``tolist()``, at the depth of the line where
    json put the array's marker. Floats print as json prints them; byte-string
    cells print as strings, verbatim but for their NULs, so they must need no
    escaping, as :func:`fmt_cells` never does. A payload string that json
    writes as the marker raises ValueError."""
    arrays = []

    def place(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _MARKER

    pieces = json.dumps(payload, sort_keys=True, indent=1, default=place).split(_PLACE)
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a payload string reads as the array marker {_MARKER!r}")
    parts = pieces[:1]
    for array, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        parts += [*_array_pieces(array, len(line) - len(line.lstrip(" "))), after]
    return "".join(parts)


def _array_pieces(a: np.ndarray, depth: int) -> list[str]:
    """``a.tolist()`` as ``json.dumps(indent=1)`` writes it ``depth`` levels deep."""
    pad = " " * (depth + 1)
    if not len(a):
        return ["[]"]
    if a.ndim > 2 or not a.size:
        pieces = [p for sub in a for p in (",\n" + pad, *_array_pieces(sub, depth + 1))]
        return ["[\n" + pad, *pieces[1:], "\n" + pad[1:] + "]"]
    q = '"' if a.dtype.kind == "S" else ""
    if not q:
        spell = repr if a.dtype.kind == "f" and np.isfinite(a).all() else json.dumps
        a = np.array(list(map(spell, a.ravel().tolist())), dtype="S").reshape(a.shape)
    if a.ndim == 1:
        rows = _join_rows(a[:, None], pad + q, "", q, ",\n")
    else:
        rows = _join_rows(a, f"{pad}[\n {pad}{q}", f"{q},\n {pad}{q}", f"{q}\n{pad}]", ",\n")
    return ["[\n", rows, "\n" + pad[1:] + "]"]


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
