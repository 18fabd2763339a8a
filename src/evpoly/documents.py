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
_U = np.uint64
_LOW32, _LOW63 = _U(2**32 - 1), _U(2**63 - 1)
_HOLE = "\0array\0"  # stands for a deferred array in the encoder's text
_HOLE_JSON = json.dumps(_HOLE)


@functools.cache
def _tables() -> tuple:
    """Schubfach's g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1, k in [-324, 292],
    as 32-bit limbs (a1, a0, b1, b0) of its 63-bit halves g1 = a1 2^32 + a0 and
    g0 = b1 2^32 + b0; then the bytes of every 4-digit group, the masks of 0..17
    digits, "0." with 0..3 zeros (or none) and "e-324" .. "e+308", NUL-padded."""
    g = [(5 ** max(-k, 0) << max(r, 0)) // (5 ** max(k, 0) << max(-r, 0)) + 1  # 10^-k = 5^-k 2^-k
         for k in range(-324, 293) for r in [125 - (-k * 913124641741 >> 38) - k]]
    g1, g0 = np.array([divmod(x, 2**63) for x in g], _U).T
    limbs = np.stack([g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32])
    groups = (np.indices((10,) * 4).reshape(4, -1).T + 48).astype(np.uint8, order="C")
    groups = groups.view(np.uint32).ravel()
    masks = (np.arange(17) < np.arange(18)[:, None]) * np.uint8(255)
    zeros = np.array([b"0.", b"0.0", b"0.00", b"0.000", b""], "S5").view(np.uint8).reshape(5, 5)
    exps = np.array([b"e%+03d" % e for e in range(-324, 309)], "S5").view(np.uint8).reshape(-1, 5)
    return limbs, groups, masks, zeros, exps


def _rop(g, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop(g, cp): g cp / 2^127 rounded to odd, as the reference takes
    it from the 64-bit halves y1, y0 of g1 cp and x1 of g0 cp, for g in limbs
    (``_tables``) and cp < 2^59.  ``cp`` is overwritten."""
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
    z <<= 1
    y1 |= z != 0  # the sticky bit: z below bit 63
    return y1


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
    vb, vbl, vbr = _rop(_tables()[0].take(k + 324, axis=1), cp)
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


def _float_rows(x: np.ndarray, width: int) -> np.ndarray:
    """Finite doubles as rows of a byte matrix: ", ", "[" before each run of
    ``width`` if one is given, ``repr(v)`` spread over the row with NUL bytes
    between its characters, "]" after each run.  Deleting the NULs leaves the text."""
    _, groups, masks, zeros, exps = _tables()
    mag = x.view(_U) & _LOW63
    normal, zero = mag >= 2**52, mag == 0
    f, p = _decimal(np.where(normal, mag, _U(0x3FF0000000000000)))  # 1.0 where not normal
    q = [f // 10**i for i in (16, 12, 8, 4)] + [f]  # numpy divides by a constant fast, not %
    digits = groups.take(np.stack([q[0]] + [b - a * 10**4 for a, b in zip(q, q[1:])], 1))
    digits = digits.view(np.uint8)[:, 3:]  # f's 17 digits
    n = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)  # significant digits
    digits[zero, 0] = 48  # 0.0 where 1.0 stood in
    expo = (p <= -4) | (p > 16)  # repr's exponent form
    lead = ~expo & (p <= 0)  # 0.000ddd
    rows = np.zeros((len(x), 49), np.uint8)
    rows[:, :2] = 44, 32
    rows[:, 3] = np.signbit(x) * np.uint8(45)
    rows[:, 4:9] = zeros.take(np.where(lead, -p, 4), axis=0)
    cells = rows[:, 9:43].reshape(-1, 17, 2)  # a point, then a digit
    point = np.where(expo, np.where(n > 1, 1, 17), np.where(lead, 17, p))
    i = np.flatnonzero(point < 17)
    cells[i, point[i], 0] = 46
    np.bitwise_and(digits, masks.take(np.where(expo | lead, n, np.maximum(n, p + 1)), axis=0),
                   out=cells[:, :, 1])
    i = np.flatnonzero(expo)
    rows[i, 43:48] = exps.take(p[i] + 323, axis=0)
    for i in np.flatnonzero(~normal & ~zero).tolist():  # subnormal
        text = repr(float(x[i])).encode()
        rows[i, 3:] = 0
        rows[i, 3:3 + len(text)] = np.frombuffer(text, np.uint8)
    if width:
        runs = rows.reshape(-1, width, 49)
        runs[:, 0, 2], runs[:, -1, 48] = 91, 93
    return rows


def _array_text(a: np.ndarray) -> str:
    """``json.dumps(a.tolist())`` for a finite float64 array of one or two axes.

    Each ``_CHUNK`` floats are one pass: digits by ``_decimal``, the layout
    of ``float.__repr__`` by ``_float_rows``, then the NUL bytes deleted.
    Against ``.tolist()`` and json's encoder (one process, 2-vCPU VM) it takes
    1.2 times their time at 400 floats, 1.0 at 500, 0.57 at 2,000 and about
    0.5 from 3,000 up.  A process's first call also builds ``_tables`` (1-2 ms,
    about 1 % of starting the command); hence ``ARRAY_TEXT_MIN`` at 2,000.
    """
    width = a.shape[1] if a.ndim == 2 else 0
    run = max(width, 1)  # a pass ends on a row's end
    step, x = max(_CHUNK // run, 1) * run, a.ravel()
    parts = [_float_rows(x[i:i + step], width).tobytes().translate(None, b"\0")
             for i in range(0, x.size, step)]
    return "[" + b"".join(parts)[2:].decode() + "]"


def json_text(payload: dict) -> str:
    """``payload`` as one line of JSON, byte for byte ``json.dumps`` of it with
    each numpy array as its list.  JSON has no infinity or NaN, so a value
    that is not finite raises a GeometryError naming its key, dotted through maps."""
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
    except ValueError:
        for key, value in payload.items():
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
