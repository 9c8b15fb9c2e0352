"""Float64 rows as text, byte for byte what Python's '%.17g' writes, built with numpy array arithmetic.

'%.17g' gives 17 significant digits, rounded half to even, with trailing zeros
and a trailing '.' dropped: float() reads back the same double. For
1e-4 <= |x| < 1e13, where it writes fixed notation, the digits come from the
exact product of x and a power of ten (Dekker's two-product, plain float64) and
are laid out in uint64 words; zeros, subnormals, non-finite and far values are
formatted by '%.17g' itself, one at a time.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_BLOCK_ROWS = 4096  # rows formatted at a time
_U = np.uint64  # text is built in little-endian words, eight bytes each
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_POW10 = np.array([float(10**k) for k in range(23)])  # 10^0 .. 10^22, each an exact double
_ASCII_ZEROS = _U(0x3030303030303030)


def _words(text: bytes, count: int) -> list[int]:
    """text, zero-padded, as count little-endian 64-bit words."""
    return [int.from_bytes(text.ljust(8 * count, b"\0")[i:i + 8], "little") for i in range(0, 8 * count, 8)]


# _MARKS[:, c]: three words whose first c bytes are 0x01, the byte mask of a c-byte text
_MARKS = np.array([_words(b"\1" * c, 3) for c in range(25)], dtype="<u8").T.copy()


def _layout_table() -> np.ndarray:
    """Per decimal exponent X = -4..13 (column X + 4), the words that lay out fixed notation: a shift of
    8t bits for the t = max(-X, 0) zeros after '0.', 32 - 8t, the '-' and zeros in front, the two low
    words of a mask of the bytes before the '.' at byte p, and the '.' itself."""
    rows = []
    for x in range(-4, 14):
        t = max(-x, 0)
        p = 2 if x < 0 else x + 2
        front, low, dot = _words(b"-" + b"0" * t, 1), _words(b"\xff" * p, 2), _words(b"\0" * p + b".", 2)
        rows.append([8 * t, 32 - 8 * t, *front, *low, *dot])
    return np.array(rows, dtype=_U).T.copy()


_LAYOUT = _layout_table()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a * 10^(16 - e) exactly, for 0 <= 16 - e <= 22: Dekker's product of Veltkamp halves."""
    b = _POW10.take(16 - e)
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    b_hi = _SPLIT * b
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    hi = a * b
    return hi, a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _round17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) with 10^16 <= D < 10^17 and D * 10^(E - 16) the value of a rounded to 17 significant digits,
    half to even, for 1e-4 <= a < 1e13: the digits and decimal exponent '%.17g' writes."""
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    # log10 can round across a power of ten: first make the exact product hi + lo at least 10^16 ...
    while (low := (hi < 1e16) | ((hi == 1e16) & (lo < 0))).any():
        e[low] -= 1
        hi[low], lo[low] = _scaled(a[low], e[low])
    # ... then round it: hi >= 2^53 is an even integer, so rint's half-even on lo is half-even on D.
    # Where that reaches 10^17, move up one decade (the rounded value's exponent, as '%.17g' takes it).
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    while (high := d >= 10**17).any():
        e[high] += 1
        hi, lo = _scaled(a[high], e[high])
        d[high] = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return d, e


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8 (uint64) as bytes 0..9, most significant in the lowest byte."""
    x = v // _U(10000)
    x |= (v - x * _U(10000)) << _U(32)  # two 4-digit lanes
    q = (x * _U(5243) >> _U(19)) & _U(0x0000007F0000007F)  # lane // 100
    x = q | ((x - q * _U(100)) << _U(16))  # four 2-digit lanes
    q = (x * _U(103) >> _U(10)) & _U(0x000F000F000F000F)  # lane // 10
    return q | ((x - q * _U(10)) << _U(8))


def _text_fields(v: np.ndarray, words: np.ndarray, marks: np.ndarray) -> None:
    """'%.17g' % x for each x of a flat float64 array, written into words, (n, 3) little-endian uint64 words
    of text, and marks, (n, 3) words whose 0x01 bytes mark the text's bytes; each row of either may be part
    of a wider row.

    For 1e-4 <= |x| < 1e13 '%.17g' writes fixed notation: the exactly rounded digits (_round17) are laid
    out eight to a word, a '.' is inserted, and trailing zeros (and a trailing '.') fall outside the mark.
    Everything else (zeros, subnormals, non-finite and far values) is formatted by '%.17g' itself.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e13)
    d, e = _round17(np.where(fast, a, 1.0))
    q = d // 10**8
    tail = _digit_bytes((d - q * 10**8).astype(_U))  # digits 9..16
    leading = q // 10**8  # digit 0
    head = _digit_bytes((q - leading * 10**8).astype(_U))  # digits 1..8
    # last: the index (0..16) of the last nonzero digit, from the bytes in use in each word. A word whose
    # highest nonzero byte, at index h, is a digit 1..9 lies in [2^8h, 2^(8h+4)], so even rounded to a
    # double its frexp exponent is 8h+1..8h+5
    tail_bytes, head_bytes = ((np.frexp(w.astype(float))[1] + 7) >> 3 for w in (tail, head))
    last = np.where(tail_bytes > 0, 8 + tail_bytes, head_bytes)
    head |= _ASCII_ZEROS
    tail |= _ASCII_ZEROS
    shift, back, front, m0, m1, dot0, dot1 = _LAYOUT.take(e + 4, axis=1)
    # '-', then the 17 digits from byte 1 ...
    w0 = ((leading.astype(_U) | _U(0x30)) << _U(8)) | (head << _U(16))
    w1 = (head >> _U(48)) | (tail << _U(16))
    w2 = tail >> _U(48)
    # ... moved up by the zeros a negative exponent puts after '0.' (8t <= 32, so no shift reaches 64) ...
    w2 = (w2 << shift) | ((w1 >> _U(32)) >> back)
    w1 = (w1 << shift) | ((w0 >> _U(32)) >> back)
    w0 = (w0 << shift) | front
    # ... and '.' inserted at byte p (2..15): every byte from p moves up one
    h0, h1 = w0 & ~m0, w1 & ~m1
    words[:, 0] = (w0 & m0) | (h0 << _U(8)) | dot0
    words[:, 1] = (w1 & m1) | (h1 << _U(8)) | (h0 >> _U(56)) | dot1
    words[:, 2] = (w2 << _U(8)) | (h1 >> _U(56))
    # the text ends after the last nonzero digit, or after the units digit when no fraction digit is
    # nonzero; byte 0 holds '-' for negative values only
    size = np.where(last > e, last + 3 + np.maximum(-e, 0), e + 2)
    for j in range(3):
        marks[:, j] = _MARKS[j].take(size)
    marks[:, 0] &= ~(fast & (v > 0)).astype(_U)
    for k in np.flatnonzero(~fast).tolist():
        text = b"%.17g" % float(v[k])
        words[k] = 0
        words[k].view(np.uint8)[: len(text)] = np.frombuffer(text, np.uint8)
        marks[k] = _MARKS[:, len(text)]


def text_rows(rows: np.ndarray, sep: str, lead: str = "") -> Iterator[np.ndarray]:
    """The bytes of lead + sep.join('%.17g' % x for x in row) + '\n' for each row of an (N, 3) float64
    array, yielded as uint8 arrays: lead once, then blocks of up to _BLOCK_ROWS rows.

    Each value has a slot of four words: its three words of text (see _text_fields), then sep, or '\n' +
    lead after the row's last value, cut to the '\n' after the call's last row. One boolean mask keeps the
    written bytes.
    """
    if not rows.shape[0]:
        return
    count = min(rows.shape[0], _BLOCK_ROWS)
    words, marks = np.empty((3 * count, 4), "<u8"), np.empty((3 * count, 4), "<u8")
    ends = [text.encode("ascii") for text in (sep, sep, "\n" + lead)]
    words.reshape(count, 3, 4)[..., 3] = [_words(text, 1)[0] for text in ends]
    marks.reshape(count, 3, 4)[..., 3] = [_MARKS[0, len(text)] for text in ends]
    yield np.frombuffer(lead.encode("ascii"), np.uint8)
    for first in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS].ravel()
        _text_fields(block, words[:block.size, :3], marks[:block.size, :3])
        if first + _BLOCK_ROWS >= rows.shape[0]:
            marks[block.size - 1, 3] = _MARKS[0, 1]
        yield words[:block.size].view(np.uint8)[marks[:block.size].view(np.bool_)]
