"""How edgrow writes a file: every output (CSV, JSON report, checkpoint)
through :func:`atomic_writer`, and CSV lines whose float cells are exactly
the bytes of ``"%.17g" % x``, a whole CSV in one :func:`write` call.

:func:`cells` finds the 17 correctly rounded digits of every cell with
numpy.  For finite ``x > 0``, ``E = floor(log10 x)`` and ``q = 16 - E``,
``x 10^q = p + r``: ``a = ldexp(x, k_q)`` is exact, ``10^q 2^-k_q = hi + lo``
holds 106 bits, ``p = a hi`` and ``r`` is Dekker's (1971) exact error of that
product plus ``a lo``.  As ``x 10^q >= 10^16 > 2^53``, ``p`` is an integer and
the digits are ``int(p) + floor(r)`` rounded by ``frac(r)``, with an error
below ``2^-46``; an integer part outside ``[10^16, 10^17)`` moves ``E`` by one.
Ties within ``2^-30`` of one half, cells unsettled after three passes,
``-0.0``, NaN and the infinities take Python's own conversion.

A cell is four 8-byte words: five NULs, the sign, the first digit and the
dot; the other 16 digits (trailing zeros NUL); and ``e+ddd``.  Each is a
table lookup or a few integer operations over the whole block.  Other
fixed-notation cells move their bytes by one gather (``0.000`` before the
digits, or the integer digits into the dot's column).  Every text lies in
bytes 5 to 28, and :func:`write_lines` copies those into a block's lines and
drops their NULs in one pass.
"""

import contextlib
import functools
import os

import numpy as np

WIDTH = 32  # bytes of a cell's four words
_TEN16, _TEN17 = 10**16, 10**17
_Q_LOW = -296  # tables cover q = 16 - E for E in [-328, 312], any double's E (-324..308) ± 4
_E_LOW = -330  # the tables by exponent cover E in [-330, 330]
_BLOCK = 4096  # float cells formatted at once: the scratch and half the lines stay near 0.55 MiB
_ROWS = 9  # scratch rows of one float per cell that formatting a block uses


@functools.cache
def _tables() -> tuple:
    """The power table by ``q - _Q_LOW`` with ``hi`` split for Dekker's
    product, 0000 .. 9999 in a word's low and high half, the words and masks
    :func:`cells` looks up, and the byte moves of fixed notation."""
    k, words = [], []
    for q in range(_Q_LOW, 345):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        s = 106 - num.bit_length() + den.bit_length()
        m = (num << s) // den if s >= 0 else num // (den << -s)
        if m.bit_length() > 106:
            m, s = m >> 1, s - 1
        k.append(105 - s)  # 10^q 2^-k_q = m 2^-105 = hi + lo
        hi = float(m >> 53) * 2.0**-52
        t = hi * 134217729.0  # 2^27 + 1
        hi_big = t - (t - hi)
        words.append((hi, hi_big, hi - hi_big, float(m & (2**53 - 1)) * 2.0**-105))
    group = np.arange(10**4)
    quads = sum((48 + group // 10 ** (3 - place) % 10) << 8 * place for place in range(4)).astype(np.uint64)
    first = [b"\0" * 5 + sign + b"0" + dot for sign in (b"\0", b"-") for dot in (b"\0", b".")]
    tail = [b"" if -4 <= e < 17 else b"e%+03d" % e for e in range(_E_LOW, 1 - _E_LOW)]
    movable = np.array([-4 <= e < 17 and e != 0 for e in range(_E_LOW, 1 - _E_LOW)])
    # A word v of digit values (each byte below 16) has float(v) < 2^(8h + 4)
    # for its top nonzero byte h: by the biased exponent, the bytes 0 .. h.
    keep = [0] * 1023 + [2 ** (8 * min(b // 8 + 1, 8)) - 1 for b in range(65)]
    # Each byte of a cell is taken from its byte ``moves`` (0 is NUL, and 1
    # and 2 hold "0" and "."), then clipped to [least, most]: integer digits
    # dropped as trailing zeros come back, and the dot stands before a digit.
    moves = np.tile(np.arange(WIDTH), (21, 1))
    moves[:, 1:3], least, most = 0, np.zeros((21, WIDTH), np.uint8), np.full((21, WIDTH), 255, np.uint8)
    for e in range(1, 17):
        moves[e + 4, 7 : 8 + e] += 1
        least[e + 4, 7 : 7 + e], most[e + 4, 7 + e] = ord("0"), ord(".")
    for e in range(-4, 0):
        moves[e + 4, 6 : 7 - e], moves[e + 4, 7], moves[e + 4, 7 - e] = 1, 2, 6
        moves[e + 4, 8 - e : 24 - e] += e
    first, tail = (np.array([int.from_bytes(t, "little") for t in table], np.uint64) for table in (first, tail))
    lookups = (quads, quads << np.uint64(32), first, tail, np.array(keep, np.uint64), movable, moves, least, most)
    return (np.array(k, np.intc), *np.array(words).T.copy(), *lookups)


def _scaled(x: np.ndarray, j: np.ndarray, s: np.ndarray) -> tuple:
    """Integer part and fraction of ``x 10^(16 - e)`` for the table index
    ``j = 16 - e - _Q_LOW``, in the rows ``s[0]`` (as ``int64``) and ``s[1]``
    of the scratch ``s``; ``s[2:7]`` is overwritten."""
    k, hi, hi_big, hi_small, lo = _tables()[:5]
    whole, r, a, p, t, a_s, u = s[0].view(np.int64), *s[1:7]
    np.ldexp(x, k.take(j, out=s[0].view(np.intc)[: len(x)], mode="clip"), out=a)
    np.multiply(a, hi.take(j, out=p, mode="clip"), out=p)
    np.multiply(a, 134217729.0, out=t)
    np.subtract(t, np.subtract(t, a, out=a_s), out=t)  # ab = t - (t - a)
    np.subtract(a, t, out=a_s)
    np.multiply(t, hi_big.take(j, out=u, mode="clip"), out=r)
    r -= p  # r = ((ab hb - p) + ab hs + a_s hb) + a_s hs + a lo, in this order
    hs = hi_small.take(j, out=s[0], mode="clip")
    u *= a_s
    r += np.multiply(t, hs, out=t)
    r += u
    r += np.multiply(a_s, hs, out=a_s)
    r += np.multiply(lo.take(j, out=t, mode="clip"), a, out=t)
    np.floor(r, out=t)
    r -= t
    whole[...], a.view(np.int64)[...] = p, t
    whole += a.view(np.int64)
    return whole, r


def decimal(x: np.ndarray, s=None) -> tuple:
    """``(d, e, exact)`` for positive finite ``x``: ``d`` is the 17-digit
    ``round(x 10^(16-e))`` in ``[10^16, 10^17)`` and ``e`` the decimal
    exponent of the rounded value.  Where ``exact`` is False, Python's
    conversion must decide instead and ``d`` is a placeholder.  ``s`` is
    scratch of 8 rows of ``len(x)``; ``e`` and ``d`` are its first two."""
    s = np.empty((8, len(x))) if s is None else s
    j, d = s[0].view(np.int64), s[1].view(np.int64)
    j[...] = np.floor(np.log10(x, out=s[2]), out=s[2])
    np.subtract(16 - _Q_LOW, j, out=j)
    exact = np.empty(x.shape, bool)
    sel, rows = slice(None), s[1:]
    for _ in range(3):
        whole, frac = _scaled(x[sel], j[sel], rows)
        low, high = whole < _TEN16, whole >= _TEN17
        j[sel] -= high.astype(np.int64) - low
        d[sel] = whole + (frac > 0.5)
        exact[sel] = np.abs(frac - 0.5) > 2.0**-30
        moved = low | high
        if not moved.any():
            break
        sel = np.flatnonzero(moved) if isinstance(sel, slice) else sel[moved]
        rows = np.empty((7, len(sel)))
    else:
        exact[sel] = False
    carry = d == _TEN17
    d[carry | ~exact] = _TEN16
    return d, np.subtract(16 - _Q_LOW + carry, j, out=j), exact


def cells(x: np.ndarray, s=None) -> np.ndarray:
    """``(len(x), WIDTH)`` bytes whose row ``i``, NUL bytes removed, is
    ``"%.17g" % x[i]`` for the 1-D float array ``x``.  ``s`` is scratch of
    :data:`_ROWS` contiguous rows of ``len(x)``; the bytes are its rows 5 to 8."""
    x = np.asarray(x, dtype=float)
    s = np.empty((_ROWS, len(x))) if s is None else s
    quads, high_quads, first, tail, keep, movable, moves, least, most = _tables()[5:]
    fast = np.isfinite(x) & (x != 0)
    ax = np.abs(x, out=s[0])
    ax[~fast] = 1.0
    d, e, exact = decimal(ax, s[1:])
    words = s[5:9].view(np.uint64).reshape(-1, 4)
    part, lead, ends = s[0].view(np.int64), s[2].view(np.int64), s[3:5].view(np.int64)
    np.floor_divide(d, 10**8, out=part)  # the first nine digits
    np.subtract(d, np.multiply(part, 10**8, out=ends[1]), out=ends[1])
    np.floor_divide(part, 10**8, out=lead)
    np.subtract(part, np.multiply(lead, 10**8, out=ends[0]), out=ends[0])
    for word, digits in zip(words.T[1:3], ends):
        high = np.floor_divide(digits, 10**4, out=part)  # ``//`` by a constant is much faster than ``%``
        digits -= np.multiply(high, 10**4, out=word.view(np.int64))
        quads.take(high, out=word, mode="clip")
        word |= high_quads.take(digits, out=part.view(np.uint64), mode="clip")
    values = np.subtract(words.T[1:3], np.uint64(0x3030303030303030), out=ends.view(np.uint64))
    values[0] |= (values[1] != 0).astype(np.uint64) << np.uint64(56)
    fraction = values[0] != 0  # a nonzero digit after the first
    np.right_shift(values.astype(float).view(np.uint64), 52, out=values)
    words.T[1:3] &= keep.take(values, mode="clip")
    tail.take(np.subtract(e, _E_LOW, out=part), out=words[:, 3], mode="clip")
    moving = np.flatnonzero(movable.take(part, mode="clip"))
    first.take(np.add(np.multiply(x < 0, 2, out=part), fraction, out=part), out=words[:, 0], mode="clip")
    lead -= x == 0  # +0.0 was computed as 1.0
    words[:, 0] += np.left_shift(lead, 48, out=lead).view(np.uint64)
    chars = words.view(np.uint8)
    for start in range(0, moving.size, 256):  # 256 cells bound the gather's index arrays
        fixed = moving[start : start + 256]
        form = e[fixed] + 4
        chars[fixed, 1:3] = ord("0"), ord(".")
        index = moves.take(form, axis=0)
        index += (fixed * WIDTH)[:, None]
        moved = np.maximum(chars.ravel().take(index, mode="clip"), least.take(form, axis=0))
        chars[fixed] = np.minimum(moved, most.take(form, axis=0), out=moved)
    fallback = np.flatnonzero(~(fast & exact) & ((x != 0) | np.signbit(x)))
    for i, v in zip(fallback, x[fallback].tolist()):
        chars[i] = np.frombuffer((b"\0" * 5 + b"%.17g" % v).ljust(WIDTH, b"\0"), np.uint8)
    return chars


@contextlib.contextmanager
def atomic_writer(path, text: bool = False):
    """Binary handle (UTF-8 text with ``text``) whose contents replace
    ``path`` only once fully written: writes go to ``<path>.tmp`` beside it
    and ``os.replace`` swaps it in after the handle closes, so a failure or
    a kill mid-write leaves the previous file intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write(path, header: str, *columns) -> None:
    """Replace ``path`` with the line ``header`` and the :func:`write_lines`
    lines of ``columns``."""
    with atomic_writer(path) as fh:
        fh.write(header.encode() + b"\n")
        write_lines(fh, *columns)


def write_lines(fh, *columns) -> None:
    """Write one CSV line per cell of the columns' broadcast shape, in C
    order, to the binary file ``fh``.

    Float columns are written as ``%.17g``, integer columns as ``%d``,
    bytes columns as they are (an empty one leaves the cell empty) and text
    columns as UTF-8, quoted as RFC 4180 asks where a cell holds a comma, a
    quote or a line break.  The cells of about :data:`_BLOCK` float cells
    along the first axis are formatted at once, floats in scratch that every
    block reuses, and the block's lines are written in two halves.  A column
    broadcast along the first axis is converted once.
    """
    columns = list(map(np.asarray, columns))
    n = np.broadcast_shapes(*(c.shape for c in columns))[0]
    cut = [c.ndim > 0 and len(c) == n for c in columns]
    columns = [c if k or c.dtype.kind in "fS" else _bytes(c) for c, k in zip(columns, cut)]
    per_row = sum(int(np.prod(c.shape[1:])) for c in columns if c.dtype.kind == "f")
    step, scratch = -(-_BLOCK // max(per_row, 1)), None
    for start in range(0, n, step):
        block = [c[start : start + step] if k else c for c, k in zip(columns, cut)]
        floats = [c.ravel() for c in block if c.dtype.kind == "f"]
        if floats:
            size = sum(map(len, floats))
            scratch = np.empty((_ROWS + 1) * size) if scratch is None else scratch
            s = scratch[: (_ROWS + 1) * size].reshape(_ROWS + 1, size)  # the last row: the cells
            texts = cells(np.concatenate(floats, out=s[_ROWS]), s[:_ROWS])[:, 5:29].view("S24")
        fields, at = [], 0
        for c in block:  # each column's cells as bytes of one width
            if c.dtype.kind == "f":
                c, at = texts[at : at + c.size].reshape(c.shape), at + c.size
            fields.append(c if c.dtype.kind == "S" else _bytes(c))
        rows, *shape = np.broadcast_shapes(*(field.shape for field in fields))
        line, half = b",".join(bytes(field.itemsize) for field in fields) + b"\n", -(-rows // 2)
        for first in range(0, rows, half):
            part = [f[first : first + half] if k else f for f, k in zip(fields, cut)]
            lines = min(half, rows - first)
            buffer = bytearray(line) * (lines * int(np.prod(shape)))
            out, at = np.frombuffer(buffer, np.uint8).reshape(lines, *shape, len(line)), 0
            for field in part:
                out[..., at : at + field.itemsize].view(field.dtype)[..., 0] = field
                at += field.itemsize + 1
            fh.write(buffer.translate(None, b"\0"))
            del out, buffer  # not held while the next block is formatted


def _bytes(column: np.ndarray) -> np.ndarray:
    """A non-float column's cells as bytes: integers as ``%d``, bytes as they
    are, text as UTF-8, quoted where a cell holds a comma, a quote or a line
    break (RFC 4180)."""
    if column.dtype.kind != "U":
        return np.asarray(column.astype(bytes).tolist())
    cells = []
    for cell in column.ravel().tolist():
        if any(ch in cell for ch in ',"\r\n'):
            cell = '"' + cell.replace('"', '""') + '"'
        cells.append(cell.encode("utf-8"))
    return np.array(cells, dtype=bytes).reshape(column.shape)
