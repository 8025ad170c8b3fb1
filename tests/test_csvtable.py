"""The numpy ``"%.17g"`` formatter against Python's own formatting, and
the pipelined table writer's failures."""

import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensemble_backstep import csvtable
from ensemble_backstep.csvtable import format_17g


def _texts(values):
    """Each value's text from :func:`format_17g`, its NUL padding dropped."""
    text = format_17g(np.asarray(values, dtype=float))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in text]


def _python(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _edge_values():
    """Zeros, subnormals, infinities and nan; every power of ten from 1e-8
    to 1e18 with both neighbours; the exponents at which the layout
    switches (-5/-4 and 16/17); halfway ties at the 17th digit."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
              2.2250738585072014e-308, math.inf, -math.inf, math.nan,
              9.9999999999999991e-05, 1e-4, 1.0000000000000001e-4,
              99999999999999984.0, 1e17, 1e16, 9999999999999998.0,
              99999999999999999.0, 123456789012345678.0,
              1.0000076293945312, 0.10000228881835938,
              1.0251998901367188e-05, 1.0 + 2.0 ** -17]
    for k in range(-8, 19):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_format_matches_python_on_edge_values():
    values = _edge_values()
    assert _texts(values) == _python(values)


def test_format_keeps_the_array_shape():
    values = np.arange(24.0).reshape(2, 3, 4) - 11.5
    text = format_17g(values)
    assert text.shape[:3] == (2, 3, 4) and text.dtype == np.uint8
    assert _texts(values.ravel()) == _python(values.ravel())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_format_matches_python_on_bit_patterns(bits):
    """Any 64-bit pattern read as a double: most lie outside the integer
    path's range and exercise the fallback, and none may warn."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _python(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-2e17, max_value=2e17)
                .filter(lambda v: v == 0.0 or 1e-7 < abs(v)),
                min_size=1, max_size=64))
def test_format_matches_python_on_the_integer_path(values):
    """Doubles around the integer path's range [1e-6, 1e17)."""
    assert _texts(values) == _python(values)


def test_format_matches_python_on_many_scales(rng):
    values = rng.standard_normal(20000) * 10.0 ** rng.uniform(-25, 25, 20000)
    assert _texts(values) == _python(values)


def test_decimal_rounds_half_even_and_carries():
    """``hi + lo`` to 17 digits: ties go to the even integer, and a sum
    that rounds to 10**17 carries into the exponent.  No double in the
    integer path's range rounds up to a power of ten, so the carry is
    pinned here on the scaled pair itself."""
    hi = np.array([1e16, 1e16, 1e16 + 2.0, 1e16 + 2.0, 1e17])
    lo = np.array([0.5, 1.5, 0.5, -1.0, -0.25])
    n, exponent = csvtable._decimal(hi, lo, np.array([3, 3, 3, 3, 5]))
    assert n.tolist() == [10 ** 16, 10 ** 16 + 2, 10 ** 16 + 2,
                          10 ** 16 + 1, 10 ** 16]
    assert exponent.tolist() == [13, 13, 13, 13, 12]


def test_scaled_corrects_the_log10_estimate():
    """Just below a power of ten ``log10`` rounds up to the power, and the
    exact comparisons move ``p`` by one so that the value keeps to the
    integer path instead of falling back to Python."""
    a = np.nextafter(np.array([float(f"1e{k}") for k in range(-5, 17)]), 0.0)
    hi, lo, p, ok = csvtable._scaled(a)
    assert ok.all()
    assert ((1e16 <= hi) & (hi <= 1e17)).all()
    assert (p == 16 - np.arange(-6, 16)).all()


def test_write_table_raises_a_column_error_and_ends_its_sink(tmp_path,
                                                             monkeypatch):
    """A column that raises in the third chunk stops the table there: the
    error reaches the caller, the sink has written the two chunks before it
    in order, and no thread is left behind."""
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 4)
    calls = []

    def column(rows):
        calls.append(rows)
        if len(calls) == 3:
            raise ValueError("chunk 3")
        return np.arange(rows.start, rows.stop)[:, None] + np.zeros(4)

    path = tmp_path / "table.csv"
    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk 3"):
        csvtable.write_table(str(path), "g,a,v\n", [
            np.arange(10.0)[:, None], np.arange(4.0)[None, :], column])
    assert threading.active_count() == before
    assert len(calls) == 3
    assert path.read_text() == "g,a,v\n" + "".join(
        f"{g},{a},{g}\n" for g in range(2) for a in range(4))


def test_write_table_raises_the_sinks_error(monkeypatch):
    """A write that fails on the sink reaches the caller as the same
    exception.  The write fails once the caller formats the third chunk,
    with the second waiting in the queue: the caller formats no further
    chunk and does not wait on a full queue, and no thread is left
    behind."""
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 4)
    error = OSError("no space left on device")
    calls = []
    third_chunk = threading.Event()

    class FullDisk(io.BytesIO):
        """Takes the header, then fails every write."""
        def write(self, data):
            if self.tell():
                third_chunk.wait(timeout=60)
                raise error
            return super().write(data)

    def column(rows):
        calls.append(rows)
        if len(calls) == 3:
            third_chunk.set()
        return np.zeros((rows.stop - rows.start, 4))

    monkeypatch.setattr(csvtable, "open", lambda path, mode: FullDisk(),
                        raising=False)
    raised = []

    def write():
        try:
            csvtable.write_table("table.csv", "g,a,v\n", [
                np.arange(100.0)[:, None], np.arange(4.0)[None, :], column])
        except OSError as exc:
            raised.append(exc)

    before = threading.active_count()
    caller = threading.Thread(target=write, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "write_table waits on a full queue"
    assert len(raised) == 1 and raised[0] is error
    assert threading.active_count() == before
    assert len(calls) == 3


def test_tables_written_at_once_keep_their_bytes(tmp_path, monkeypatch):
    """Four tables of 64 chunks each, written at once from four threads
    (eight with their sinks, on any number of cores) with a short switch
    interval: every file holds its own lines, in order."""
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 3)
    groups, inner = np.arange(64.0)[:, None], np.arange(3.0)[None, :] / 7

    def expected(i):
        return "g,a,v\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (g, a, g * a + i)
            for g in groups.ravel().tolist() for a in inner.ravel().tolist())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=csvtable.write_table, args=(
            str(tmp_path / f"{i}.csv"), "g,a,v\n",
            [groups, inner, groups * inner + i])) for i in range(4)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(writer.is_alive() for writer in writers)
    for i in range(4):
        assert (tmp_path / f"{i}.csv").read_text() == expected(i)
