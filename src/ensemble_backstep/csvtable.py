"""CSV tables written by numpy, every float exactly as ``"%.17g"`` prints it.

:func:`format_17g` turns an array of doubles into NUL-padded ASCII, one row
of bytes per value, byte for byte Python's ``"%.17g" % v``.  A finite ``v``
with ``1e-6 <= |v| < 1e17`` is formatted by integer arithmetic:

* with ``p = 16 - floor(log10|v|)`` in [0, 22], ``10**p`` is an exact
  double, and Dekker's product (Dekker 1971, *A floating-point technique
  for extending the available precision*) splits ``|v| * 10**p`` exactly
  into ``hi + lo``; exact comparisons of ``(hi, lo)`` with 1e16 and 1e17
  correct ``p`` by one where ``log10`` rounded across a power of ten;
* ``hi`` is then an even integer of at least 2**53, so ``hi + rint(lo)``
  is the 17-digit integer rounded half to even, as the correctly rounded
  conversion rounds; 10**17 carries into the exponent;
* digits are read four at a time from a table of ``"%04d"`` strings, laid
  out in fixed notation for decimal exponents -4 to 16 and as ``d.ddde±XX``
  otherwise, trailing zeros dropped.

Every other value (±0, subnormals and the rest below 1e-6, 1e17 and
above, inf and nan) is formatted by Python itself, so the text is exact by
construction.

:func:`write_table` lays a chunk of lines out in a byte matrix, each field
NUL-padded to its column's width, and writes it with the NULs dropped: NUL
never occurs in CSV text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_17g", "write_table"]

#: ``"%04d" % q`` for q = 0..9999, its four ASCII bytes read as one uint32.
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: 10**p for p = 0..22, every one an exact double.
_POW10 = np.array([float(10 ** p) for p in range(23)])
#: Index of the last nonzero digit of ``"%04d" % q``, the largest j with
#: ``q % 10**(4 - j) != 0``; far below 0 for q = 0.
_LAST_NONZERO = np.where(np.arange(10000)[:, None] % np.array(
    [10000, 1000, 100, 10]) != 0, np.arange(4), -64).max(axis=1).astype(np.int8)
#: Row l masks the digits after index l of a 17-digit string.
_KEEP = np.where(np.arange(17) <= np.arange(17)[:, None], 255, 0).astype(
    np.uint8)
_DOT = np.uint8(ord("."))
#: Lowest decimal exponent the integer path formats: 16 - 22.
_MIN_EXPONENT = -6

#: Lines laid out and written at a time; bounds the writer's memory.
_CHUNK_LINES = 1 << 15


def _two_product(a, b):
    """``(hi, lo)`` with ``hi`` the rounded ``a * b`` and ``hi + lo == a * b``
    exactly (Dekker's TwoProduct with Veltkamp's splitting)."""
    hi = a * b
    c = 134217729.0 * a                     # 2**27 + 1
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _scaled(a):
    """``a * 10**p`` as ``hi + lo`` in [1e16, 1e17), with ``p``, for positive
    ``a``; ``ok`` is False where no p in 0..22 brings it there."""
    p = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    hi, lo = _two_product(a, _POW10[p])
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    ok = ~(below | above)
    off = np.flatnonzero(~ok)
    if off.size:
        p[off] = np.clip(p[off] + below[off] - above[off], 0, 22)
        h, l = _two_product(a[off], _POW10[p[off]])
        hi[off], lo[off] = h, l
        ok[off] = (((h > 1e16) | ((h == 1e16) & (l >= 0.0)))
                   & ((h < 1e17) | ((h == 1e17) & (l < 0.0))))
    return hi, lo, p, ok


def _decimal(hi, lo, p):
    """``hi + lo`` rounded half to even to the 17-digit integer ``n`` and
    the decimal exponent of its first digit."""
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, 16 - p + carry


def _digits(n):
    """The 17 ASCII digits of each 17-digit integer ``n``, and the index of
    the last nonzero one."""
    first, rest = np.divmod(n, 10 ** 16)
    quads = np.empty((n.size, 5), np.uint32)
    last = np.zeros(n.size, np.int8)
    for col, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1), start=1):
        q, rest = np.divmod(rest, scale)
        quads[:, col] = _QUADS[q]
        np.maximum(last, _LAST_NONZERO[q] + (4 * col - 3), out=last)
    quads[:, 0] = _QUADS[first]
    return quads.view(np.uint8)[:, 3:], last


def _layout(exponent: int):
    """``(lead, point, tail)`` of a decimal exponent's layout: constant text
    before the digits, how many digits precede the decimal point (0: the
    point is in ``lead``) and constant text after them."""
    if -4 <= exponent < 0:
        return b"0." + b"0" * (-exponent - 1), 0, b""
    if 0 <= exponent < 17:
        return b"", exponent + 1, b""
    return b"", 1, b"e%+03d" % exponent


def format_17g(values) -> np.ndarray:
    """``"%.17g" % v`` of every value as NUL-padded ASCII: a uint8 array of
    shape ``values.shape + (width,)``, ``width`` at most 24."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    a = np.abs(flat)
    rows = np.flatnonzero((a >= 1e-6) & (a < 1e17))
    hi, lo, p, ok = _scaled(a[rows])
    if not ok.all():
        rows, hi, lo, p = rows[ok], hi[ok], lo[ok], p[ok]
    n, exponent = _decimal(hi, lo, p)
    # Sorted by exponent, the rows of each layout are one run.
    order = np.argsort(exponent.astype(np.int8), kind="stable")
    rows = rows[order]
    digits, last = _digits(n[order])
    kept = digits & np.take(_KEEP, last, axis=0)
    counts = np.bincount(exponent - _MIN_EXPONENT)
    ends = np.cumsum(counts)

    done = np.zeros(flat.size, bool)
    done[rows] = True
    rest = np.flatnonzero(~done)
    fallback = np.array(["%.17g" % v for v in flat[rest].tolist()], dtype="S")
    # Every row's text: the laid-out rows in sorted order, then Python's.
    laid = np.zeros((rows.size + rest.size, 24), np.uint8)
    laid[:rows.size, 0] = np.where(np.signbit(flat[rows]), ord("-"), 0)
    laid[rows.size:, :fallback.itemsize] = fallback.view(np.uint8).reshape(
        rest.size, fallback.itemsize)
    width = fallback.itemsize
    for e in np.flatnonzero(counts):
        run = slice(ends[e] - counts[e], ends[e])
        lead, point, tail = _layout(int(e) + _MIN_EXPONENT)
        at = 1 + len(lead)
        laid[run, 1:at] = np.frombuffer(lead, np.uint8)
        laid[run, at:at + point] = digits[run, :point]
        if point:
            at += point + 1
            laid[run, at - 1] = np.where(last[run] >= point, _DOT, 0)
        laid[run, at:at + 17 - point] = kept[run, point:]
        at += 17 - point
        laid[run, at:at + len(tail)] = np.frombuffer(tail, np.uint8)
        width = max(width, at + len(tail))

    source = np.empty(flat.size, np.intp)
    source[rows] = np.arange(rows.size)
    source[rest] = np.arange(rows.size, laid.shape[0])
    # The sign column is dropped when nothing is written in it.
    start = 0 if laid[:, 0].any() else 1
    text = np.take(laid, source, axis=0)[:, start:width]
    return text.reshape(values.shape + (width - start,))


def write_table(path: str, header: str, columns) -> None:
    """Write ``header`` and one CSV line per cell (g, a) of a table, ``a``
    running fastest.

    Each column is an array that broadcasts to ``(n_groups, n_inner)``: of
    shape ``(n_groups, 1)`` it holds one value per group, ``(1, n_inner)``
    one per inner index and ``(n_groups, n_inner)`` one per line; ``None``
    is an empty field, and a callable a column of one value per line that
    returns its rows of groups ``g`` for a slice ``g``, so that it is never
    held whole.  The bytes are those of ``np.savetxt(fmt="%.17g",
    delimiter=",")`` on the full numeric table (with an empty field left
    empty), written :data:`_CHUNK_LINES` lines at a time.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns
                                  if c is not None and not callable(c)))
    n_groups, n_inner = shape
    # An empty field and a column of one value per inner index are
    # formatted once; every other column, a chunk of groups at a time.
    once = [np.zeros((1, 1, 0), np.uint8) if c is None else
            None if callable(c) or c.shape[0] > 1 else format_17g(c)
            for c in columns]
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    step = max(1, _CHUNK_LINES // n_inner)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for lo in range(0, n_groups, step):
            hi = min(lo + step, n_groups)
            texts = []
            for c, text in zip(columns, once):
                if text is None:
                    text = format_17g(c(slice(lo, hi)) if callable(c)
                                      else c[lo:hi])
                texts.append(text)
            width = sum(text.shape[-1] + 1 for text in texts)
            # Every byte is written below, by a field or its separator.
            lines = np.empty((hi - lo, n_inner, width), np.uint8)
            at = 0
            for text, sep in zip(texts, seps):
                end = at + text.shape[-1]
                lines[:, :, at:end] = text
                lines[:, :, end] = sep
                at = end + 1
            flat = lines.reshape(-1)
            fh.write(flat[flat != 0])
