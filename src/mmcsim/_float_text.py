"""``"%.17g" % x`` for every float64 of an array, computed in numpy.

For fl(1e-4) <= |x| < 1e16, ``%.17g`` writes the 17 digits of
D = round-half-even(|x| * 10**p), p = 16 - floor(log10 |x|), with a
point before the last p, less trailing zeros and a bare point.  With
|x| * 10**p = m * 5**p / 2**s, the float64 |x| * 10**p is an estimate d
within 9 of D, and the rest m * 5**p - d * 2**s, far below 2**63, is
exact in wrapping uint64 arithmetic.  Other values go through ``%``.
"""

import numpy as np

_U = np.uint64   # numpy < 2 takes uint64 with a Python int to float64
_TEN = np.array([float(f"1e{j}") for j in range(-5, 21)])   # each the least double >= 10**j
_FIVE = np.array([5 ** p for p in range(21)], np.uint64)
_D = np.arange(10, dtype=np.uint64)
# The four ASCII digits of 0..9999 as the little-endian word they fill,
# and their trailing zeros.
_DIGITS4 = (_D[:, None, None, None] | _D[:, None, None] << _U(8) | _D[:, None] << _U(16)
            | _D << _U(24)).reshape(-1) + _U(0x30303030)
_Z = (_D == 0).astype(np.int8)
_ZEROS4 = (_Z * (1 + _Z[:, None] * (1 + _Z[:, None, None] * (1 + _Z[:, None, None, None])))).ravel()


def _masks() -> np.ndarray:
    """The kept fraction bytes, the integer part's bytes and the point
    (byte 7 + k, k = floor(log10 |x|)) of a 24-byte text whose digits end
    it, as three words each, word-major, by 21 * (k + 4) + digits kept."""
    col, kept, point = np.arange(24), np.arange(21)[:, None], np.arange(3, 23)[:, None, None]
    masks = np.stack(np.broadcast_arrays((col > point) & (col <= point + kept),
                                         (col >= np.minimum(point, 7) - 1) & (col < point),
                                         (col == point) & (kept > 0)))
    masks = masks * np.array([255, 255, ord(".")], np.uint8)[:, None, None, None]
    masks = masks.reshape(3, 420, 3, 8).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(masks).view("<u8")[..., 0]


_FRACTION, _INTEGER, _POINT = _masks()


def _digit_text(mag: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of D = round-half-even(mag * 10**p) after 7 bytes of
    ``0``, as three words, word-major, and their trailing zeros."""
    bits = mag.view(np.int64)
    s = 1023 + 55 - (bits >> 52) - p          # 1..49
    m = ((bits & (2 ** 52 - 1)) | 2 ** 52) << 3
    d = (mag * _TEN[p + 5]).astype(np.int64)
    rest = (m.view(_U) * _FIVE[p] - (d.view(_U) << s.view(_U))).view(np.int64)
    d += rest >> s
    rest &= (1 << s) - 1
    half = 1 << (s - 1)
    d += (rest > half) | ((rest == half) & (d & 1).astype(bool))
    upper, lower = np.divmod(d, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    groups = (*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4))
    del s, m, d, rest, half, upper, lower   # bounds the memory held, as do in-place operations
    text = np.empty((3, mag.size), np.uint64)
    text[0] = _DIGITS4[first] << _U(32) | _DIGITS4[0]
    text[1] = _DIGITS4[groups[0]] | _DIGITS4[groups[1]] << _U(32)
    text[2] = _DIGITS4[groups[2]] | _DIGITS4[groups[3]] << _U(32)
    zeros = np.zeros(mag.size, np.int8)
    for group in groups:   # a group of digits other than 0000 restarts the count
        zeros *= group == 0
        zeros += _ZEROS4[group]
    return text, zeros


def float_text(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % x`` of each float64 ``x`` of ``values``, in order, as
    an ``(values.size, 24)`` uint8 array padded with NUL bytes."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    mag = np.abs(x)
    slow = np.flatnonzero(~((mag >= _TEN[1]) & (mag < _TEN[21])))
    mag[slow] = 1.0   # formatted by % below
    p = 22 - np.searchsorted(_TEN, mag, side="right")   # 16 - floor(log10 |x|)
    text, zeros = _digit_text(mag, p)
    key = 21 * (20 - p) + np.maximum(p - zeros, 0)
    # The integer part is the text moved one byte down, the point between.
    moved = text >> _U(8)
    moved[:2] |= text[1:] << _U(56)
    moved &= np.take(_INTEGER, key, axis=1)
    moved |= np.take(_POINT, key, axis=1)
    text &= np.take(_FRACTION, key, axis=1)
    out = np.empty((x.size, 3), "<u8")
    np.bitwise_or(text, moved, out=out.T)
    out[:, 0] |= (x.view(_U) >> _U(63)) * _U(ord("-"))
    if slow.size:
        slow_text = np.array(["%.17g" % v for v in x[slow].tolist()], "S24")
        out[slow] = slow_text.view("<u8").reshape(-1, 3)
    return out.view(np.uint8)
