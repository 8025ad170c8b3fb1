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

±0 are written ``0`` and ``-0``.  Every other value (subnormals and the
rest below 1e-6, 1e17 and above, inf and nan) is formatted by Python
itself, so the text is exact by construction.

:func:`write_table` is a two-stage pipeline.  The calling thread formats
the lines a chunk at a time, as segments: each column of one value per line
alone, and each run of the other fields joined with their separators, so
that a ``kernels.csv`` line is four segments, ``x,xi,`` | ``y,`` | ``k`` |
``,ktilde\\n``.  One sink thread, started and joined in each call and fed
through a queue of depth 1, lays each chunk's segments out side by side in
a byte matrix, NUL-padded, and writes it with the NULs dropped (NUL never
occurs in CSV text), while the caller formats the next chunk.  Chunks are
written in order by the one sink, so the bytes are the same from run to
run and whatever the number of threads.
"""

from __future__ import annotations

import queue
import threading

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
#: The sink drops the NULs of a chunk's byte matrix, and writes it, in this
#: many parts, so that the mask and the compacted copy are a part's size:
#: the sink and the formatting caller together hold about what one
#: formatting thread held.
_STRIP_PARTS = 4


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
    first = n // 10 ** 16
    rest = n - first * 10 ** 16
    quads = np.empty((n.size, 5), np.uint32)
    last = np.zeros(n.size, np.int8)
    for col, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1), start=1):
        q = rest // scale
        rest -= q * scale
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


def _integer_digits(a):
    """The rows of ``a``, absolute values, that the integer path formats,
    sorted by decimal exponent so that the rows of each layout are one run,
    with their 17 ASCII digits, the index of each one's last nonzero digit
    and the number of rows at each exponent from :data:`_MIN_EXPONENT`."""
    rows = np.flatnonzero((a >= 1e-6) & (a < 1e17))
    hi, lo, p, ok = _scaled(a[rows])
    if not ok.all():
        rows, hi, lo, p = rows[ok], hi[ok], lo[ok], p[ok]
    n, exponent = _decimal(hi, lo, p)
    order = np.argsort(exponent.astype(np.int8), kind="stable")
    counts = np.bincount(exponent - _MIN_EXPONENT)
    rows, n = rows[order], n[order]
    # Freed first: the digits set the peak of memory.
    del hi, lo, p, exponent, order
    digits, last = _digits(n)
    return rows, digits, last, counts


def format_17g(values) -> np.ndarray:
    """``"%.17g" % v`` of every value as NUL-padded ASCII: a uint8 array of
    shape ``values.shape + (width,)``, ``width`` at most 24."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    rows, digits, last, counts = _integer_digits(np.abs(flat))
    kept = digits & np.take(_KEEP, last, axis=0)
    ends = np.cumsum(counts)
    zeros = np.flatnonzero(flat == 0.0)
    numeric = rows.size + zeros.size

    done = np.zeros(flat.size, bool)
    done[rows] = True
    done[zeros] = True
    rest = np.flatnonzero(~done)
    fallback = np.array(["%.17g" % v for v in flat[rest].tolist()], dtype="S")
    # Every row's text: the laid-out rows in sorted order, the zeros as
    # ``0`` or ``-0``, then Python's.
    laid = np.zeros((flat.size, 24), np.uint8)
    laid[:rows.size, 0] = np.where(np.signbit(flat[rows]), ord("-"), 0)
    laid[rows.size:numeric, 0] = np.where(np.signbit(flat[zeros]), ord("-"), 0)
    laid[rows.size:numeric, 1] = ord("0")
    laid[numeric:, :fallback.itemsize] = fallback.view(np.uint8).reshape(
        rest.size, fallback.itemsize)
    width = max(fallback.itemsize, 2 if zeros.size else 0)
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
    source[zeros] = np.arange(rows.size, numeric)
    source[rest] = np.arange(numeric, flat.size)
    # The sign column is dropped when nothing is written in it.
    start = 0 if laid[:, 0].any() else 1
    text = np.take(laid, source, axis=0)[:, start:width]
    return text.reshape(values.shape + (width - start,))


def _axis(part) -> str:
    """What a line part repeats along: ``"const"`` (bytes, or an array of
    one value), ``"group"``, ``"inner"`` or ``"line"`` (a callable, or an
    array of one value per line)."""
    if isinstance(part, bytes):
        return "const"
    if callable(part):
        return "line"
    per_group, per_inner = part.shape[0] > 1, part.shape[1] > 1
    if per_group and per_inner:
        return "line"
    return "group" if per_group else "inner" if per_inner else "const"


def _segments(columns) -> list:
    """The line as ``[axis, parts]`` segments laid side by side: each
    column of one value per line alone, and every run of the other fields
    on one axis joined with the separators and empty fields between them,
    as in ``x,xi,`` | ``y,`` | ``k`` | ``,ktilde\\n``."""
    parts = []
    for i, c in enumerate(columns):
        if c is not None:
            parts.append(c)
        parts.append(b"\n" if i == len(columns) - 1 else b",")
    segments = []
    for part in parts:
        axis = _axis(part)
        last = segments[-1][0] if segments else "line"
        if "line" not in (axis, last) and ("const" in (axis, last)
                                           or axis == last):
            segments[-1][0] = last if axis == "const" else axis
            segments[-1][1].append(part)
        else:
            segments.append([axis, [part]])
    return segments


def _join(parts, rows) -> np.ndarray:
    """The NUL-padded text of a segment's parts side by side, for the
    groups ``rows``: shape ``(groups or 1, inner or 1, width)``."""
    texts = [np.frombuffer(p, np.uint8)[None, None] if isinstance(p, bytes)
             else format_17g(p(rows) if callable(p)
                             else p[rows] if p.shape[0] > 1 else p)
             for p in parts]
    if len(texts) == 1:
        return texts[0]
    lead = np.broadcast_shapes(*(t.shape[:2] for t in texts))
    return np.concatenate([np.broadcast_to(t, lead + t.shape[2:])
                           for t in texts], axis=2)


def _write_chunks(fh, chunks: queue.Queue, failed: list) -> None:
    """The sink: write each chunk's segment texts taken from ``chunks``
    until ``None`` arrives.  After a failure, kept in ``failed``, chunks
    are only taken, never written, so that the caller never waits on a full
    queue."""
    for texts in iter(chunks.get, None):
        if failed:
            continue
        try:
            _write_chunk(fh, texts)
        except BaseException as exc:    # re-raised by the caller
            failed.append(exc)


def _write_chunk(fh, texts) -> None:
    """Lay a chunk's segment texts out side by side in a NUL-padded byte
    matrix and write it with the NULs dropped, :data:`_STRIP_PARTS` parts
    in order.  The matrix is freed on return, before the next chunk's."""
    shape = np.broadcast_shapes(*(t.shape[:2] for t in texts))
    lines = np.empty(shape + (sum(t.shape[-1] for t in texts),), np.uint8)
    at = 0
    for text in texts:
        lines[:, :, at:at + text.shape[-1]] = text
        at += text.shape[-1]
    for part in np.array_split(lines.reshape(-1), _STRIP_PARTS):
        fh.write(part[part != 0])


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
    empty), formatted :data:`_CHUNK_LINES` lines at a time on the calling
    thread and laid out and written by one sink thread, a chunk behind.
    The sink's exception, if any, is raised here; the sink has ended when
    this returns or raises.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns
                                  if c is not None and not callable(c)))
    n_groups, n_inner = shape
    segments = _segments(columns)
    # Constant and per-inner segments are formatted once; the others, a
    # chunk of groups at a time.
    once = [None if axis in ("group", "line") else _join(parts, slice(None))
            for axis, parts in segments]
    step = max(1, _CHUNK_LINES // n_inner)
    chunks = queue.Queue(maxsize=1)
    failed = []
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        sink = threading.Thread(target=_write_chunks,
                                args=(fh, chunks, failed))
        sink.start()
        try:
            for lo in range(0, n_groups, step):
                if failed:
                    break
                rows = slice(lo, min(lo + step, n_groups))
                chunks.put([_join(parts, rows) if text is None else text
                            for (_, parts), text in zip(segments, once)])
        finally:
            chunks.put(None)
            sink.join()
        if failed:
            raise failed[0]
