"""Decimal text to float64 in numpy, bit for bit as ``float`` parses it.

A value ``-?[0-9]*.?[0-9]*`` whose digits form an integer M, f of them after
the dot, is M / 10**f. In a long double with a 64-bit significand, M < 2**63
and 10**f for f <= 27 are exact, so the quotient rounds once; rounding it to
float64 is then correct unless it lies halfway between two float64, where
its low 11 bits are 0x400 (Clinger, PLDI 1990).
"""

import numpy as np

# Only a long double whose 64-bit significand is stored first takes that pass.
EXACT_SCALE = np.dtype(np.longdouble).itemsize == 16 and (
    np.longdouble(1) + np.longdouble(2) ** -63).tobytes()[:8] == (2**63 + 1).to_bytes(8, "little")
POW10 = np.array([10**f for f in range(28)], dtype=np.longdouble)


def parse_decimals(lines: list, out: np.ndarray) -> None:
    """Parse ``lines`` (emptied), each of ``len(out) // len(lines)`` values
    and commas, into ``out``. ``float`` parses values with ``+eE``, M or f
    too large, -0, halfway cases, and all of them without EXACT_SCALE.
    ValueError for any other byte or value, or a line of another count."""
    line_ends = np.cumsum([len(v) + 1 for v in lines])
    text = bytearray(b",").join(lines + [b""])
    lines.clear()
    odd = {}  # start -> each value with + e or E, which the integer pass reads as zeros
    for c in b"+eE":
        i = text.find(c)
        while i >= 0:
            start, i = text.rfind(b",", 0, i) + 1, text.find(b",", i)
            odd[start], text[start:i] = text[start:i], b"0" * (i - start)
            if odd[start].translate(None, b"0123456789.-+eE"):  # float takes "1e5\r", csv not
                raise ValueError("not a decimal")
            i = text.find(c, i)
    text = bytes(text)
    buf = np.frombuffer(text, np.uint8)
    at = np.flatnonzero(buf < 48).astype(np.int32)  # where each , - . is
    kind = buf.take(at)
    ends = np.flatnonzero(kind == 44)
    seps = at.take(ends)
    ends -= 1
    dotted = kind.take(ends) == 46  # a dot right before a comma ends the integer digits
    f = seps - at.take(ends) - 1
    f[~dotted] = 0
    d, dots = len(out) // max(len(line_ends), 1), np.count_nonzero(kind == 46)
    if (len(seps) + dots + np.count_nonzero(kind == 45) != len(at)  # another byte below "0"
            or np.count_nonzero(dotted) != dots  # two dots in a value, or a dot before "-"
            or not np.array_equal(seps[d - 1::d] + 1, line_ends)):
        raise ValueError("not a row of decimals")
    if EXACT_SCALE:
        # raises on an empty value and on a "-" after a value's first byte
        m = np.fromstring(text.replace(b".", b""), np.int64, sep=",")  # saturates
        q = POW10.take(f, mode="clip")
        np.divide(m, q, out=q)
        out[:] = q
        redo = (q.view(np.uint64)[::2] & 0x7FF == 0x400) | (f > 27) | (m == 2**63 - 1)
        redo |= m == -2**63
        zero = np.flatnonzero(m == 0)
        redo[zero[buf.take(seps.take(zero - 1) + 1, mode="wrap") == 45]] = True  # sign of -0
    else:
        out[:] = list(map(float, text[:-1].split(b",")))
        redo = np.zeros(len(seps), bool)
    redo[np.searchsorted(seps, list(odd))] = True
    redo = np.flatnonzero(redo)
    starts = (seps.take(redo - 1) + 1) % len(text)
    out[redo] = [float(odd.get(a, text[a:b])) for a, b in zip(starts.tolist(),
                                                               seps.take(redo).tolist())]
