"""Reading and writing polygon documents.

The interchange format is a single JSON object: kind ("polygon3",
"polygon2", "framed3"), closed flag, vertex list, optional per-vertex
directions (framed3) and a free-form metadata map; the reader ignores
other keys.  Floats are serialized with shortest round-trip repr, so
write then read reproduces coordinates bit-exactly.  Bare CSV vertex
lists (one vertex per line) are also accepted on input.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import GeometryError, Polygon3, read_text, write_text
from .darboux import FramedPolygon

__all__ = ["PolygonDocument", "DocumentError", "read_document", "write_document", "json_text"]

KINDS = ("polygon3", "polygon2", "framed3")
ARITY = {"polygon3": 3, "polygon2": 2, "framed3": 3}


class DocumentError(GeometryError):
    """An input or usage error: a malformed document, option or command line (exit 1)."""


def _rows_error(name: str) -> DocumentError:
    return DocumentError(f"{name} must be a list of numeric coordinate rows of equal length")


def _too_large(name: str) -> DocumentError:
    return DocumentError(f"{name}: a coordinate is too large for a float")


def _coordinates(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _rows_error(name) from exc
    except OverflowError as exc:  # a Python integer beyond the float range
        raise _too_large(name) from exc


def _json_rows(values, name: str) -> np.ndarray:
    """Float array of a JSON list of equal-length lists of numbers, else DocumentError.

    numpy would convert numeric strings and booleans, so the entry types
    are checked before ``np.fromiter`` builds the array.
    """
    if not (isinstance(values, list) and set(map(type, values)) <= {list}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        raise _rows_error(name)
    widths = set(map(len, values))
    if len(widths) > 1:
        raise _rows_error(name)
    width = widths.pop() if widths else 0
    try:
        flat = np.fromiter(chain.from_iterable(values), float, len(values) * width)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise _too_large(name) from exc
    return flat.reshape(len(values), width)


@dataclass
class PolygonDocument:
    kind: str
    closed: bool
    vertices: np.ndarray
    directions: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DocumentError(f"unknown kind {self.kind!r}")
        self.vertices = _coordinates(self.vertices, "vertices")
        if self.vertices.ndim != 2 or len(self.vertices) == 0:
            raise DocumentError("vertices must be a nonempty list of coordinates")
        if self.vertices.shape[1] != ARITY[self.kind]:
            raise DocumentError(
                f"{self.kind} needs {ARITY[self.kind]}-vectors, "
                f"got arity {self.vertices.shape[1]}")
        if self.kind == "framed3":
            if self.directions is None:
                raise DocumentError("framed3 document needs directions")
            self.directions = _coordinates(self.directions, "directions")
            if self.directions.shape != self.vertices.shape:
                raise DocumentError("directions must match vertices in shape")
            if not np.logical_and.reduce(np.isfinite(self.directions), axis=None):
                raise DocumentError("non-finite direction coordinate")
        elif self.directions is not None:
            raise DocumentError(f"{self.kind} does not carry directions")
        if not np.logical_and.reduce(np.isfinite(self.vertices), axis=None):
            raise DocumentError("non-finite vertex coordinate")

    def to_framed(self) -> FramedPolygon:
        if self.kind != "framed3":
            raise DocumentError("document carries no frame directions")
        return FramedPolygon.build(self.vertices, self.directions, closed=self.closed)

    @classmethod
    def from_polygon(cls, p: Polygon3) -> "PolygonDocument":
        return cls("polygon3", p.closed, p.points)

    @classmethod
    def from_framed(cls, f: FramedPolygon, metadata=None) -> "PolygonDocument":
        return cls("framed3", f.closed, f.polygon.points,
                   f.directions.values, metadata=dict(metadata or {}))


ARRAY_TEXT_MIN = 2000  # floats from which json_text writes an array by _array_text
_CHUNK = 4096  # floats per pass of _float_rows: its uint64 temporaries stay in cache
_U, _LE = np.uint64, np.dtype("<u8")  # _LE: a word whose byte j is its bits 8j .. 8j + 7
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)
_HOLE = "\0array\0"  # stands for a deferred array in the encoder's text
_HOLE_JSON = json.dumps(_HOLE)
# g(k) for k from _K0, Schubfach's least k less one for _rounded, to 292; which rows are built
_K0, _G, _MADE = -325, np.zeros((4, 618), _U), np.zeros(618, bool)


def _g(k: np.ndarray) -> list:
    """Schubfach's g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 for each k, as
    32-bit limbs (a1, a0, b1, b0) of its 63-bit halves g1 = a1 2^32 + a0 and
    g0 = b1 2^32 + b0.  A row is built from Python ints when a k first needs it."""
    i = k - _K0
    if not _MADE.take(i).all():
        new = np.bincount(i, minlength=len(_MADE)) > 0
        for k in (np.flatnonzero(new > _MADE) + _K0).tolist():
            r = 125 - (-k * 913124641741 >> 38) - k  # g = 10^-k 2^(r + k), 10^-k = 5^-k 2^-k
            g = (5 ** max(-k, 0) << max(r, 0)) // (5 ** max(k, 0) << max(-r, 0)) + 1
            _G[:, k - _K0] = g >> 95, g >> 63 & 2**32 - 1, g >> 32 & 2**31 - 1, g & 2**32 - 1
        _MADE[new] = True
    return [limb.take(i) for limb in _G]  # a take per limb: no temporary of two axes


@functools.cache
def _tables() -> tuple:
    """Words (byte j in bits 8j .. 8j + 7) for the 24-byte body of ``_float_rows``: each
    4-digit group, plain and with its trailing zeros NUL; by slot (a point put in at byte
    0..16, none, a "0" put in at byte 0) the bytes kept below it; by slot and count, the
    byte put in over 0..17 leading "0"s; the bytes from 0..17 on; "e-324" .. "e+308".
    For ``_index_records``, as 4-byte words: each group plain, without its leading
    zeros, and that with a space in byte 2."""
    d = np.indices((10,) * 4, np.uint32).reshape(4, -1)
    digits = d[0] | d[1] << 8 | d[2] << 16 | d[3] << 24 | 0x30303030
    zero, byte, ff = d == 0, np.uint32(255) << np.arange(0, 32, 8, dtype=np.uint32), np.uint8(255)
    trailing = sum(np.logical_and.reduce(zero[k:]) * byte[k] for k in range(4))  # zeros from k on
    leading = sum(np.logical_and.reduce(zero[:k + 1]) * byte[k] for k in range(4))  # and up to k
    j, n = np.arange(24), np.arange(18)[:, None]
    at = np.r_[np.arange(17), 24, 0][:, None, None]  # the byte a slot puts in, 24 for none
    put = np.r_[np.full(17, 46), 0, 48][:, None, None].astype(np.uint8)
    fill = np.where(j < at, n > j, np.where(j > at, n >= j, False)) * np.uint8(48) | (j == at) * put
    words = [w.reshape(-1, 24).view(_LE).T.copy() for w in ((j < at) * ff, fill, (j >= n) * ff)]
    e = np.arange(-324, 309)
    exps = (digits[abs(e)] >> 8 & ~(np.uint32(255) * (abs(e) < 100))).astype(np.uint64) << _U(16)
    exps |= np.where(e < 0, ord("-"), ord("+")).astype(np.uint64) << _U(8) | _U(ord("e"))
    lead = digits & ~leading
    return (np.concatenate([digits, digits & ~trailing]).astype(np.uint64),
            *words, exps,
            np.concatenate([digits, lead, lead | 32 << 16]).astype("<u4"))


def _product(g, cp: np.ndarray) -> tuple:
    """g cp / 2^127 for g in limbs (``_g``) and cp < 2^61, as its integer part and the 63
    bits below the point, short by less than 1.5 units of 2^-63: Schubfach's rop(g, cp) before
    its rounding to odd, from the 64-bit halves y1, y0 of g1 cp and x1 of g0 cp.  Overwrites cp."""
    a1, a0, b1, b0 = g
    c1 = cp >> 32
    c0 = np.bitwise_and(cp, _LOW32, out=cp)
    p = np.empty_like(cp)
    x1 = b0 * c0
    x1 >>= 32
    x1 += np.multiply(b1, c0, out=p)
    x1 += np.multiply(b0, c1, out=p)
    x1 >>= 32
    x1 += np.multiply(b1, c1, out=p)
    y1 = a1 * c0
    y1 += np.multiply(a0, c1, out=p)  # the middle limb of g1 cp, below 2^64
    y0 = np.multiply(a0, c0, out=c0)
    z = np.left_shift(y1, 32, out=p)
    z += y0  # y0, the low half of g1 cp
    y1 >>= 32
    y1 += z < y0  # its carry
    z >>= 1
    z += x1
    y1 += np.multiply(a1, c1, out=c1)
    y1 += np.right_shift(z, 63, out=x1)
    z &= _LOW63
    return y1, z


def _decimal(mag: np.ndarray) -> tuple:
    """The shortest decimal 0.f x 10^p that reads back as each positive normal double
    (given by its bits), the nearest such, ties to an even last digit: Schubfach
    (R. Giulietti, "The Schubfach way to render doubles", 2020) as its reference
    DoubleToDecimal.toDecimal computes it.  f has 17 digits, trailing zeros included."""
    t = mag & _U(2**52 - 1)
    q = (mag >> 52).view(np.int64) - 1075
    c = t | _U(2**52)
    irregular = (t == 0) & (q > -1074)  # the lower neighbour is nearer than the upper
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (-k * 913124641741 >> 38) + q + 2
    cb = c << 2
    cp = np.stack([cb, cb - (_U(2) - irregular), cb + 2]) << h.view(_U)
    v, z = _product(_g(k), cp)
    vb, vbl, vbr = v | (z != 0)  # rop: rounded to odd
    vbl += c & 1  # the rounding interval is closed when c is even
    vbr -= c & 1
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, sp10 + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = (s << 2) + 2
    f = s + np.where(uin != win, win, (vb > mid) | (vb == mid) & (s & 1 == 1))
    f = np.where(upin != wpin, sp10 + wpin * _U(10), f)
    short = f < 10**16
    f += short * _U(9) * f
    return f, k + 17 - short


def _rounded(mag: np.ndarray) -> tuple:
    """Each positive normal double v (given by its bits) rounded to 17 significant digits
    as 0.f x 10^p, ties to even, as ``'%.17g'`` rounds it.  One product gives X = v 10^-k
    in [4.5e16, 9.1e17), k one below Schubfach's, to within 2^-62: f rounds X, or X / 10
    from 10^17 on.  f = 0 where the part that rounding drops is within that bound of a
    half, every exact tie among them."""
    q = (mag >> 52).view(np.int64) - 1075
    c = (mag & _U(2**52 - 1)) | _U(2**52)
    k = (q * 661971961083 >> 41) - 1
    x, z = _product(_g(k), c << ((-k * 913124641741 >> 38) + q + 2).view(_U))
    top, f = x >= 10**17, x // 10
    r = np.where(top, (x - f * 10).view(np.int64) - 5 << 60, -2**59)
    r += (z >> 3).view(np.int64)  # the part rounding drops, less a half, in units of 2^-60
    f = np.where(top, f, x) + (r > 0)
    f[(r + 2).view(_U) <= 4] = 0
    carry = f == 10**17
    f -= carry * _U(9 * 10**16)
    return f, k + 17 + top + carry


def _float_rows(x: np.ndarray, width: int, mode: tuple, rows: np.ndarray) -> np.ndarray:
    """Doubles written into ``rows``, a (len(x), 32) byte matrix, in the framing of ``mode``
    (``_REPR``, ``_G17``): a head (a run's first row has its own), the float's text with NUL
    bytes in it, the close after each run of ``width`` if given; deleting the NULs leaves the
    text.  Word 0 holds the head, the sign and "0.000" up to its last "0"; the body the digits,
    trailing zeros NUL but those an integral value keeps, from the slot on one byte up to let
    the point (or that "0") in, the exponent from byte 18 and the close in byte 23."""
    decimal, fmt, fixed, tail, heads, close = mode
    groups, below, fill, tails, exps = _tables()[:5]
    mag = x.view(_U) & _LOW63
    normal, zero = mag - _U(2**52) < _U(0x7FF0000000000000 - 2**52), mag == 0
    f, p = decimal(np.where(normal, mag, _U(0x3FF0000000000000)))  # 1.0 where not normal
    q = [f // 10**i for i in (16, 12, 8, 4)] + [f]  # numpy divides by a constant fast, not %
    g = [q[0]] + [b - a * 10**4 for a, b in zip(q, q[1:])]
    g[4] += _U(10**4)  # NUL trailing zeros, from the last group on while the groups are 0
    for j in (3, 2, 1, 0):
        np.add(g[j], _U(10**4), out=g[j], where=g[j + 1] == 10**4)
    g = [groups.take(a.view(np.int64)) for a in g]  # a take per group: no temporary of two axes
    body = [g[0] >> 24 | g[1] << 8 | g[2] << 40, g[2] >> 24 | g[3] << 8 | g[4] << 40, g[4] >> 24]
    body[0] -= zero  # "0" where "1" stood in
    expo = (p <= -4) | (p > fixed)  # the exponent form
    lead = ~expo & (p <= 0)  # 0.000ddd
    point = np.where(expo, 1, p)
    t = [w.take(point) for w in tails]
    after = (body[0] & t[0] | body[1] & t[1] | body[2] & t[2] != 0) | ~expo & bool(tail)  # a point
    i = np.where(lead, 17 + (p == -3), np.where(after, point, 17))
    keep = [w.take(i) for w in below]
    i = i * 18 + np.where(expo | lead, 0, p + tail)  # and the zeros of an integral value
    words, moved = rows.view(_LE), 0
    for j, (b, k, z) in enumerate(zip(body, keep, fill)):  # the bytes from the slot on move up
        b ^= np.bitwise_and(k, b, out=k)  # k: the bytes kept, b: those moved
        words[:, j + 1] = k | b << 8 | moved | z.take(i)
        moved = b >> 56
    head = np.signbit(x) * 5 + np.where(lead, -p, 4)
    words[:, 0] = heads[1].take(head)
    if width:
        words[::width, 0], rows[width - 1::width, 31] = heads[0].take(head[::width]), close
    i = np.flatnonzero(expo)
    words[i, 3] |= exps.take(p[i] + 323) << 16
    for i in np.flatnonzero(~normal & ~zero | (f == 0)).tolist():  # left to Python
        rows[i, 3:31] = np.frombuffer(fmt(float(x[i])).encode().ljust(28, b"\0"), np.uint8)
    return rows


def _heads(first: bytes, head: bytes) -> np.ndarray:
    """The first word of a run's first row and of any row, by sign and "0.000" prefix."""
    words = (h + s + z.ljust(4, b"\0") for h in (first, head) for s in (b"\0", b"-")
             for z in (b"0.", b"0.0", b"0.00", b"0.00", b""))
    return np.frombuffer(b"".join(words), _LE).reshape(2, 10)


# the framings: digits, fallback, the largest p written without an exponent, the
# digits an integral value keeps past the point, first words, close
_REPR = (_decimal, repr, 16, 1, _heads(b", [", b", \0"), ord("]"))  # json.dumps of a list
_G17 = (_rounded, "%.17g".__mod__, 17, 0, _heads(b"v \0", b" \0\0"), ord("\n"))  # OBJ v records


def _array_text(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())`` for a finite float64 array of one or two axes, in passes
    of ``_CHUNK`` floats through ``_float_rows``, the NUL bytes deleted.  ``ARRAY_TEXT_MIN``
    rests on the fixed cost of a pass alone: the g(k) rows a pass needs are built once."""
    width = a.shape[1] if a.ndim == 2 else 0
    run = max(width, 1)  # a pass ends on a row's end
    step, x = max(_CHUNK // run, 1) * run, a.ravel()
    parts = [_float_rows(x[i:i + step], width, _REPR, np.empty((len(x[i:i + step]), 32), np.uint8))
             .tobytes().translate(None, b"\0") for i in range(0, x.size, step)]
    return "[" + b"".join(parts)[2:].decode() + "]"


def obj_records(rows: np.ndarray, v_rows, faces: np.ndarray, lines: np.ndarray) -> list:
    """The OBJ ``v``, ``f`` and ``l`` records, as bytes: ``'v %.17g %.17g %.17g'`` of
    the (n, 3) rows, in ``_CHUNK``-float passes, each record v_rows names (if given)
    taken from the rows' bytes; then ``f`` and ``l`` of the 1-based indices."""
    x, text, step = rows.ravel(), np.empty((len(rows), 96), np.uint8), _CHUNK // 3
    for i in range(0, len(rows), step):
        _float_rows(x[3 * i:3 * i + 3 * step], 3, _G17, text[i:i + step].reshape(-1, 32))
    text = text if v_rows is None else text.take(v_rows, axis=0)
    return [text.tobytes().translate(None, b"\0")] + [
        _index_records(tag, recs) for tag, recs in ((b"f", faces), (b"l", lines))]


def _index_records(tag: bytes, recs: np.ndarray) -> bytes:
    """A line of ``tag`` and the 1-based indices of each row of ``recs``: each index as the
    4-digit groups of the widest, with three bytes to spare for a newline and ``tag`` (if first
    in its row) and a space, its leading zeros NUL; the first newline moves to the end."""
    index, i = _tables()[5], recs.ravel() + 1
    m = (len(str(i.max() if i.size else 1)) + 6) // 4
    q = [i // 10**(4 * j) for j in range(m - 1, -1, -1)]
    words = np.empty((i.size, m), "<u4")
    for j, (a, b) in enumerate(zip([0] + q, q)):  # a is 0 while the groups before are
        words[:, j] = index.take(b - a * 10**4 + ((a == 0) + (j == 0)) * 10**4)
    words[::recs.shape[1], 0] |= np.frombuffer(b"\n" + tag + b"\0\0", "<u4")
    text = words.tobytes().translate(None, b"\0")
    return text[1:] + text[:1]


def json_text(payload: dict) -> str:
    """``payload`` as one line of JSON, byte for byte ``json.dumps`` of it with
    each numpy array as its list.  JSON has no infinity or NaN, so a value
    that is not finite raises a GeometryError naming its key, dotted through
    maps; any other ValueError, such as a circular reference, is json.dumps's."""
    deferred = []

    def default(value):  # the encoder's hook for what JSON has no type for
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if value.size < ARRAY_TEXT_MIN or value.dtype != np.float64 or value.ndim > 2:
            return value.tolist()
        if not np.isfinite(value).all():
            raise ValueError("Out of range float values are not JSON compliant")
        deferred.append(value)
        return _HOLE

    encoder = json.JSONEncoder(allow_nan=False, default=default)  # json.dumps's, strict
    try:
        text = encoder.encode(payload)
    except ValueError as error:  # a float out of range names its key; a cycle, say, does not
        named = payload.items() if str(error).startswith("Out of range float") else ()
        for key, value in named:
            try:
                json_text(value) if isinstance(value, dict) else encoder.encode(value)
            except GeometryError as exc:  # named in a nested map
                raise GeometryError(f"{key}.{exc}") from None
            except ValueError:
                raise GeometryError(f"{key}: not finite, and JSON has no "
                                    "infinity or NaN") from None
        raise
    if not deferred:
        return text + "\n"
    parts = text.split(_HOLE_JSON)
    if len(parts) != len(deferred) + 1:  # a string of the payload reads as a hole
        return json.dumps(payload, allow_nan=False, default=np.ndarray.tolist) + "\n"
    return "".join(chain.from_iterable(zip(parts, map(_array_text, deferred)))) + parts[-1] + "\n"


def write_document(doc: PolygonDocument, path) -> None:
    payload = {
        "kind": doc.kind,
        "closed": doc.closed,
        "vertices": doc.vertices,
        "metadata": doc.metadata,
    }
    if doc.directions is not None:
        payload["directions"] = doc.directions
    # the text is made before the file is opened, so a refused payload leaves it as it was
    write_text(path, json_text(payload))


def _csv_error(text: str) -> DocumentError:
    """Why numpy refused the rows: the first row it cannot parse, else their arity.

    Line numbers count every line, comments and blank lines included.
    """
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        row = line.replace(",", " ")
        if row.strip() and line[0] != "#":
            try:
                np.loadtxt([row], comments=None)
            except ValueError:
                return DocumentError(f"line {lineno}: not a coordinate row")
    return DocumentError("inconsistent coordinate arity")


def _read_csv(text: str) -> PolygonDocument:
    """One vertex per line, its coordinates separated by commas or whitespace.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.
    """
    rows = [line.replace(",", " ") for line in map(str.strip, text.splitlines())
            if line and line[0] != "#"]
    if not rows:
        raise DocumentError("empty vertex list")
    # a row of only commas has no coordinates; numpy would skip it as blank
    if not any(map(str.strip, rows)):
        raise DocumentError("unsupported coordinate arity 0")
    try:
        # numpy's C reader converts numerals as float() does (correctly
        # rounded), but refuses "_" digit separators and non-ASCII digits
        vertices = np.loadtxt(rows, comments=None, ndmin=2)
    except ValueError:
        raise _csv_error(text) from None
    if len(vertices) != len(rows):
        raise DocumentError("inconsistent coordinate arity")
    arity = vertices.shape[1]
    if arity == 2:
        return PolygonDocument("polygon2", False, vertices)
    if arity == 3:
        return PolygonDocument("polygon3", False, vertices)
    raise DocumentError(f"unsupported coordinate arity {arity}")


def read_document(path) -> PolygonDocument:
    try:
        text = read_text(path)
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("empty document")
    if stripped[0] not in "{[":
        return _read_csv(text)
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    closed = payload.get("closed", False)
    if not isinstance(closed, bool):
        raise DocumentError(f"closed must be true or false, got {closed!r}")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be a JSON object")
    try:
        kind, vertices = payload["kind"], payload["vertices"]
    except KeyError as exc:
        raise DocumentError(f"missing field {exc.args[0]!r}") from exc
    directions = payload.get("directions")
    return PolygonDocument(
        kind=kind,
        closed=closed,
        vertices=_json_rows(vertices, "vertices"),
        directions=None if directions is None else _json_rows(directions, "directions"),
        metadata=metadata,
    )
