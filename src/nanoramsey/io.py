"""Deterministic CSV and JSON emitters.

Table cells go through :func:`fmt`'s rules (scientific notation, 12
significant digits, '.' decimal separator; bools as JSON literals, ints
exact), so identical inputs produce byte-identical CSV and JSON:
:func:`csv_text`, :func:`json_table`, the ``dump-snapshots`` frames and
``decoherence.surface_to_csv``. ``decoherence.surface_to_json`` and
``budget.BudgetReport.to_json`` write float ``repr`` instead, as the json
module does. The CLI never does arithmetic of its own; it formats library
results.

Every float cell is formatted by :func:`_fill_cells`, which only the row join
:func:`_join_rows` calls, into exactly the bytes of ``f"{v:.11e}"``;
docs/physics-notes.md ("Why the table bytes cannot move") gives the error bound
that makes it exact. Every JSON document comes from :func:`json_document`:
``json.dumps(..., sort_keys=True, indent=1)`` of a payload whose numpy arrays
and :class:`Cells` tables of fmt strings are laid out in numpy.

The row join works through a table in blocks of at most ``BLOCK_BYTES`` of
rows, formatting a float table on the way. Each cell depends on its own value
alone and a row never spans two blocks, so the block size moves no byte.

A document, from :func:`csv_text` or :func:`json_document` and so from every
emitter built on them, is an iterator of ``bytes`` pieces whose concatenation
is its UTF-8 text: each block of joined rows as the join leaves it, and each
small piece around them encoded on its own. The pieces are made as they are
read, so the caller that writes them in order to a binary stream never holds
the document, nor a table's formatted cells, whole.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator

import numpy as np

_K = 300                          # the power-of-ten table spans 1e-300 .. 1e300
# correctly rounded powers of ten: float() of a decimal literal rounds once
_POW10 = np.array([float(f"1e{k}") for k in range(-_K, _K + 1)])


def _words(strings) -> np.ndarray:
    """Each string of at most 4 ASCII bytes, NUL-padded, as one uint32 word."""
    return np.array([s.encode() for s in strings], dtype="S4").view("<u4")


# One cell is five words: [sign d0 . d1] [d2..d5] [d6..d9] [d10 d11 e sign] [exponent]
_LEAD = _words(f"{sign}{i // 10}.{i % 10}" for sign in "\0-" for i in range(100))
_PAIR = np.array([f"{i:02d}".encode() for i in range(100)], dtype="S2").view("<u2").astype("<u4")
_QUAD = (_PAIR[:, None] | _PAIR << 16).ravel()
_TAIL = _words(f"{i % 100:02d}e{'+-'[i // 100]}" for i in range(200))
_EXPONENT = _words(f"{i:02d}" for i in range(_K + 1))

CELL_WIDTH = 20                   # bytes per float cell; the longest is 19
TIE_WINDOW = 1e-3                 # scaled values this close to a half go through f-strings

#: Bytes per block of every blocked loop: a table's rows (8192 float cells are formatted at a
#: time, and each joined piece holds at most this many bytes of rows), a sweep's points
#: (``cli.SWEEP_BLOCK``) and a kick matrix's rows (``decoherence._KICK_BLOCK_ELEMENTS``).
#: Each temporary of a block stays under glibc's 128 KiB mmap threshold, so the blocks reuse
#: heap pages that stay in cache instead of mapping, faulting in and unmapping one array per
#: whole-table temporary: a sweep table faults in about 160 pages. Chosen by measurement:
#: 16 KiB is about 10% slower on the sweep tables, and 100 KiB refaulted about 2000 pages on
#: the 30,000-point theta table when the table was formatted whole.
BLOCK_BYTES = 64 << 10


def fmt(value) -> str:
    """Canonical cell format: 12 significant digits, scientific notation."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.11e}"


def _fill_cells(v, words, work):
    """The bytes of ``f"{x:.11e}"`` for each float x of the block ``v``, NUL-padded, into its
    (len(v), 5) ``words``, with the float array ``work``, (5, len(v)) or wider, as scratch.

    The decimal exponent comes from ``frexp``; the value is scaled into [1e11, 1e12) by a
    correctly rounded power of ten and rounded to the 12-digit mantissa. A cell whose scaled
    value lies within ``TIE_WINDOW`` of a half, or that is zero, non-finite or outside
    [1e-280, 1e280], is formatted by ``f"{x:.11e}"`` itself. Each word is looked up by
    ``np.take`` in place, the lead word's table holding the sign, and ``x - (x // n) * n``
    stands for ``x % n``, which numpy does not vectorize."""
    n = len(v)
    a, scaled, digits, head, spare = (row[:n] for row in work)
    digits, head, spare = digits.view(np.int64), head.view(np.int64), spare.view(np.int64)
    e = work[4].view(np.int32)[:n]
    np.abs(v, out=a)
    exact = a >= 1e-280
    exact &= a <= 1e280
    np.copyto(a, 1.0, where=~exact)
    _decimal_scale(a, scaled, e)
    mantissa = np.rint(scaled, out=a)
    exact &= scaled >= 1e11
    exact &= scaled < 1e12
    off = np.abs(np.subtract(scaled, mantissa, out=scaled), out=scaled)
    exact &= off < 0.5 - TIE_WINDOW
    carry = mantissa == 1e12
    np.copyto(mantissa, 1e11, where=carry)
    e += carry
    np.copyto(digits, mantissa, casting="unsafe")
    product = scaled.view(np.int64)
    rest = mantissa.view(np.int64)
    np.floor_divide(digits, 10**6, out=head)                          # the first six digits
    digits -= np.multiply(head, 10**6, out=product)                   # the last six
    k = np.floor_divide(head, 10**4, out=product)
    head -= np.multiply(k, 10**4, out=rest)
    k += np.multiply(np.signbit(v), 100, out=rest)
    np.take(_LEAD, k, mode="clip", out=words[:, 0])
    np.take(_QUAD, head, mode="clip", out=words[:, 1])
    k = np.floor_divide(digits, 100, out=product)
    np.take(_QUAD, k, mode="clip", out=words[:, 2])
    digits -= np.multiply(k, 100, out=rest)
    digits += np.multiply(e < 0, 100, out=rest)
    np.take(_TAIL, digits, mode="clip", out=words[:, 3])
    np.take(_EXPONENT, np.abs(e, out=e), mode="clip", out=words[:, 4])
    slow = np.flatnonzero(~exact)
    if slow.size:
        slow_cells = np.array([f"{x:.11e}" for x in v[slow].tolist()], dtype=f"S{CELL_WIDTH}")
        words.view(np.uint8)[slow] = slow_cells.view(np.uint8).reshape(-1, CELL_WIDTH)


def _decimal_scale(a, scaled, e):
    """Into ``e`` the decimal exponent of each a in [1e-280, 1e280], and into ``scaled``
    a * 10**(11 - e).

    The scaled value carries two roundings, the table's and the product's:
    it is within 2**-52 (relative) of the exact a * 10**(11 - e), which lies
    in [1e11 (1 - 2**-53), 1e12 (1 + 2**-53)); it leaves [1e11, 1e12) only
    when a is within an ulp of a power of ten.
    """
    # floor(log10(2**(E-1))) by 78913 / 2**18 ~ log10(2); the table corrects it by one
    np.frexp(a, out=(scaled, e))
    e -= 1
    e *= 78913
    e >>= 18
    e += a >= np.take(_POW10, e + (_K + 1), mode="clip", out=scaled)
    np.take(_POW10, (_K + 11) - e, mode="clip", out=scaled)
    scaled *= a


def _table(rows) -> np.ndarray:
    """A table's cells by fmt's rules: a float matrix as it is, formatted as it is written,
    or row tuples cell by cell as an (n, m) byte-string array (empty if there are no rows)."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        return rows
    return np.array([[fmt(v) for v in row] for row in rows], dtype="S")


def _join_rows(table, prefix: str, sep: str, suffix: str, between: str = "") -> Iterator[bytes]:
    """prefix + cell + sep + cell ... + suffix for each row of an (n, m) :func:`_table`, rows
    separated by ``between``, NULs dropped, yielded as byte pieces whose concatenation is the
    text.

    The rows go through one reused buffer, which holds the fixed bytes of each row once and
    takes a block's cells into their slots: ``BLOCK_BYTES // 8`` float cells, formatted into
    one reused word block first, or ``BLOCK_BYTES`` of byte-string rows. Each piece is at
    most ``BLOCK_BYTES`` of the buffer.
    """
    if not table.size:
        return
    n, m = table.shape
    floats = table.dtype == np.float64
    width = CELL_WIDTH if floats else table.dtype.itemsize
    # prefix, then m slots of (cell, sep) whose last sep is NUL, then the tail
    row = (prefix + sep.join(["\0" * width] * m) + "\0" * len(sep) + suffix + between).encode()
    piece = max(1, BLOCK_BYTES // len(row))
    rows = min(n, max(1, BLOCK_BYTES // 8 // m) if floats else piece)
    buffer = np.tile(np.frombuffer(row, np.uint8), (rows, 1))
    slots = buffer[:, len(prefix):len(prefix) + m * (width + len(sep))]
    slots = slots.reshape(rows, m, width + len(sep))[:, :, :width]
    if floats:
        words = np.empty((rows * m, CELL_WIDTH // 4), "<u4")
        cells = words.view(np.uint8).reshape(rows, m, CELL_WIDTH)
        # _fill_cells' scratch, made once and reused: blocks that freed their temporaries at the
        # top of the heap would have glibc trim them and the next block fault them in again
        # (about 64 pages a block of the t1 sweep's table)
        work = np.empty((5, rows * m))
    for start in range(0, n, rows):
        count = min(rows, n - start)
        if floats:
            _fill_cells(table[start:start + count].ravel(), words[:count * m], work)
            slots[:count] = cells[:count]
        else:
            slots[:count] = table[start:start + count].view((np.uint8, (width,)))
        if start + rows >= n and between:
            buffer[count - 1, -len(between):] = 0
        for at in range(0, count, piece):
            yield buffer[at:min(at + piece, count)].tobytes().translate(None, b"\0")


def csv_text(header, rows) -> Iterator[bytes]:
    """The CSV document of a table, header line first, as byte pieces made as they are read."""
    yield (",".join(str(h) for h in header) + "\n").encode()
    yield from _join_rows(_table(rows), "", ",", "\n")


class Cells:
    """A table, as :func:`_table` takes it, that :func:`json_document` writes as fmt strings,
    formatted as it is written: a float vector as a list, a matrix as a list of rows."""

    def __init__(self, table):
        self.table = _table(table)


def json_table(header, rows, metadata: dict) -> Iterator[bytes]:
    """JSON mirror of a CSV table: the same cells as strings, plus run metadata."""
    return json_document({"columns": list(header), "rows": Cells(rows), "metadata": metadata})


_MARKER = "\0ndarray\0"          # json.dumps writes _PLACE where an array goes
_PLACE = json.dumps(_MARKER)


def json_document(payload) -> Iterator[bytes]:
    """``json.dumps(payload, sort_keys=True, indent=1)`` with each ndarray
    written as json writes its ``tolist()``, at the depth of the line where
    json put the array's marker, as byte pieces made as they are read. Floats
    print as json prints them; a :class:`Cells` table prints as its fmt
    strings, which need no escaping. The payload is laid out at once: an array
    that is not 1-D or 2-D, a 2-D array whose rows are empty, and a bare array
    of anything but numbers raise TypeError here, and a payload string that json
    writes as the marker raises ValueError, not when the pieces are read."""
    arrays = []

    def place(obj):
        a = obj.table if isinstance(obj, Cells) else obj
        if not isinstance(a, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if a.ndim not in (1, 2) or len(a) and not a.size or a is obj and a.dtype.kind not in "biuf":
            raise TypeError(f"cannot write a {a.dtype} array of shape {a.shape}: only 1-D and 2-D "
                            "arrays of numbers, with cells in each row, or Cells")
        arrays.append(obj)
        return _MARKER

    pieces = json.dumps(payload, sort_keys=True, indent=1, default=place).split(_PLACE)
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a payload string reads as the array marker {_MARKER!r}")
    return _document_pieces(arrays, pieces)


def _document_pieces(arrays, pieces) -> Iterator[bytes]:
    """The json text ``pieces`` with each of ``arrays`` in the gap before the next piece."""
    yield pieces[0].encode()
    for array, before, after in zip(arrays, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _array_pieces(array, len(line) - len(line.lstrip(" ")))
        yield after.encode()


def _array_pieces(a, depth: int) -> Iterator[bytes]:
    """A 1-D or 2-D ``a.tolist()`` as ``json.dumps(indent=1)`` writes it ``depth`` levels
    deep; a :class:`Cells` table as its cells' strings."""
    q = '"' if isinstance(a, Cells) else ""
    if q:
        a = a.table
    if not len(a):
        yield b"[]"
        return
    if not q:
        spell = repr if a.dtype.kind == "f" and np.isfinite(a).all() else json.dumps
        a = np.array(list(map(spell, a.ravel().tolist())), dtype="S").reshape(a.shape)
    pad = " " * (depth + 1)
    yield b"[\n"
    if a.ndim == 1:
        yield from _join_rows(a[:, None], pad + q, "", q, ",\n")
    else:
        yield from _join_rows(a, f"{pad}[\n {pad}{q}", f"{q},\n {pad}{q}", f"{q}\n{pad}]", ",\n")
    yield ("\n" + pad[1:] + "]").encode()


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
