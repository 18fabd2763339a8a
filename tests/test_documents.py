import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pin_float_writers
from conftest import FakeOs, open_fds, random_generic_framed, short_writes

from evpoly import core, documents
from evpoly.cli import main
from evpoly.core import GeometryError, read_text, write_text
from evpoly.documents import (
    DocumentError,
    PolygonDocument,
    json_text,
    read_document,
    write_document,
)


class TestRoundTrip:
    def test_polygon3_bit_exact(self, rng, tmp_path):
        pts = rng.normal(size=(17, 3)) * np.pi
        doc = PolygonDocument("polygon3", False, pts, metadata={"note": "x"})
        path = tmp_path / "p.json"
        write_document(doc, path)
        back = read_document(path)
        assert back.kind == "polygon3"
        assert np.array_equal(back.vertices, pts)
        assert back.metadata == {"note": "x"}

    def test_framed3_bit_exact(self, rng, tmp_path):
        f = random_generic_framed(rng, 9)
        doc = PolygonDocument.from_framed(f)
        path = tmp_path / "f.json"
        write_document(doc, path)
        back = read_document(path)
        assert np.array_equal(back.vertices, f.polygon.points)
        assert np.array_equal(back.directions, f.directions.values)
        assert back.to_framed().closed is False

    @pytest.mark.parametrize("grid", ["vertex", "side"])
    def test_reads_documents_that_carry_a_grid(self, tmp_path, grid):
        # older writers stored a "grid" key; the reader ignores it
        path = tmp_path / "g.json"
        path.write_text('{"kind": "polygon3", "closed": true, "grid": "%s", '
                        '"vertices": [[0, 0, 0], [1, 0, 0], [1, 2, 0]], '
                        '"metadata": {"note": "x"}}' % grid)
        doc = read_document(path)
        assert (doc.kind, doc.closed, doc.metadata) == ("polygon3", True, {"note": "x"})
        assert np.array_equal(doc.vertices, [[0, 0, 0], [1, 0, 0], [1, 2, 0]])

    def test_write_is_deterministic(self, rng, tmp_path):
        doc = PolygonDocument("polygon2", True, rng.normal(size=(5, 2)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_document(doc, a)
        write_document(doc, b)
        assert a.read_bytes() == b.read_bytes()


def read_csv_per_line(text):
    """Reference: the CSV grammar read one line at a time with ``float()``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(x) for x in line.replace(",", " ").split()])
        except ValueError:
            raise DocumentError(f"line {lineno}: not a coordinate row") from None
    if not rows:
        raise DocumentError("empty vertex list")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DocumentError("inconsistent coordinate arity")
    if len(rows[0]) not in (2, 3):
        raise DocumentError(f"unsupported coordinate arity {len(rows[0])}")
    return np.asarray(rows)


CSV_TEXTS = {
    "commas": "0,0\n1,0\n1,1\n",
    "spaces": "0 0 0\n1.5 2 3\n2 2 2\n",
    "mixed-separators": "1, 2,3\n4\t5 ,6\n7,,8 ,9\n  10 11\t12  \n",
    "comments-and-blanks": "# x y\n\n1 2\n   # indented\n\n3 4\n#\n",
    "crlf": "1,2\r\n3,4\r\n# c\r\n5,6\r\n",
    "single-row": "1.5 -2.5",
    "unicode-spaces": "1\xa02\n3\u20034\n",
    "extremes": "-0.0, 5e-324, 1.7976931348623157e308\n"
                "-5e-324, 2.2250738585072014e-308, -1.7976931348623157e308\n"
                "1e-400, -1e-400, 1E+5\n",
    "seventeen-digits": "0.10000000000000001 0.30000000000000004 3.1415926535897931\n"
                        "1.0000000000000002 9007199254740993 2.7182818284590451e-300\n"
                        ".5 5. +1\n",
}

CSV_ERRORS = {
    "bad-token-after-comments": ("# a\n\n1 2\n# b\n3 x\n", "line 5: not a coordinate row"),
    "comma-then-hash": ("1 2\n,# c\n", "line 2: not a coordinate row"),
    "bad-token-after-arity-change": ("1 2\n1 2 3\nbar\n", "line 3: not a coordinate row"),
    "line-of-commas": ("1,2\n,,,\n3,4\n", "inconsistent coordinate arity"),
    "only-commas": (",,\n , ,\n", "unsupported coordinate arity 0"),
    "arity-change": ("1 2\n3 4 5\n", "inconsistent coordinate arity"),
    "only-comments": ("# a\n\n  #b\n", "empty vertex list"),
    "arity-1": ("1\n2\n3\n", "unsupported coordinate arity 1"),
    "arity-4": ("1 2 3 4\n5 6 7 8\n", "unsupported coordinate arity 4"),
}


class TestCsv:
    def test_three_column_csv(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# comment\n0,0,0\n1.5, 2, 3\n2 2 2\n3 1 0\n")
        doc = read_document(path)
        assert doc.kind == "polygon3"
        assert doc.vertices.shape == (4, 3)
        assert doc.vertices[1][0] == 1.5

    def test_two_column_csv(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0,0\n1,0\n1,1\n")
        assert read_document(path).kind == "polygon2"

    def test_bad_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("0,0,0\nnope\n")
        with pytest.raises(DocumentError):
            read_document(path)

    @pytest.mark.parametrize("text", CSV_TEXTS.values(), ids=CSV_TEXTS.keys())
    def test_bit_identical_to_the_per_line_reader(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())  # CRLF kept as written
        got, want = read_document(path).vertices, read_csv_per_line(text)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, message", CSV_ERRORS.values(), ids=CSV_ERRORS.keys())
    def test_malformed_rows_keep_the_per_line_message(self, tmp_path, text, message):
        with pytest.raises(DocumentError, match=f"^{message}$"):
            read_csv_per_line(text)
        path = tmp_path / "v.csv"
        path.write_text(text)
        with pytest.raises(DocumentError, match=f"^{message}$"):
            read_document(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("  \n\n")
        with pytest.raises(DocumentError, match="^empty document$"):
            read_document(path)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11"],
                             ids=["underscore", "arabic-indic-digit", "fullwidth-digit"])
    def test_numerals_numpy_refuses(self, tmp_path, token):
        # float() reads these; numpy's reader does not, and neither does the CSV grammar
        float(token)
        path = tmp_path / "v.csv"
        path.write_text(f"1 2\n{token} 3\n", encoding="utf-8")
        with pytest.raises(DocumentError, match="^line 2: not a coordinate row$"):
            read_document(path)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            PolygonDocument("mesh", False, np.zeros((3, 3)))

    def test_arity_mismatch(self):
        with pytest.raises(DocumentError):
            PolygonDocument("polygon3", False, np.zeros((3, 2)))

    def test_framed_needs_directions(self):
        with pytest.raises(DocumentError):
            PolygonDocument("framed3", False, np.zeros((3, 3)))

    @pytest.mark.parametrize("kind, vertices, directions, field", [
        ("polygon3", [[10**400, 0, 0], [1, 0, 0]], None, "vertices"),
        ("framed3", [[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, -10**400, 1]], "directions"),
    ], ids=["vertex", "direction"])
    def test_integer_beyond_the_float_range(self, kind, vertices, directions, field):
        with pytest.raises(DocumentError, match=f"^{field}: a coordinate is too large"):
            PolygonDocument(kind, False, vertices, directions)

    @pytest.mark.parametrize("kind, vertices, directions, message", [
        ("polygon3", [[0.0, 0.0, "x"]], None,
         "vertices must be a list of numeric coordinate rows of equal length"),
        ("polygon3", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]] * 2,
         "polygon3 does not carry directions"),
    ], ids=["string-coordinate", "directions-on-polygon3"])
    def test_constructor_refusals(self, kind, vertices, directions, message):
        with pytest.raises(DocumentError, match=f"^{message}$"):
            PolygonDocument(kind, False, vertices, directions)

    def test_polygon3_has_no_frame(self):
        doc = PolygonDocument("polygon3", False, np.eye(3) + 1)
        with pytest.raises(DocumentError, match="^document carries no frame directions$"):
            doc.to_framed()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "^document must be a JSON object$"),
        ('  \n["kind", "polygon3"]', "^document must be a JSON object$"),
        ("[1, 2", r"^invalid JSON: Expecting ',' delimiter: line 1 column 6 \(char 5\)$"),
    ], ids=["list", "list-after-blank", "broken-list"])
    def test_json_that_is_not_an_object(self, tmp_path, text, message):
        # a document starting with "[" is JSON, never a CSV row
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(DocumentError, match=message):
            read_document(path)

    def test_directions_shape(self):
        with pytest.raises(DocumentError):
            PolygonDocument("framed3", False, np.zeros((3, 3)),
                            directions=np.zeros((2, 3)))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError):
            read_document(path)

    @pytest.mark.parametrize("fields, message", [
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[0, 0, 1], [NaN, 0, 1]]', "non-finite direction"),
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[0, 0, 1], [Infinity, 0, 1]]', "non-finite direction"),
        ('"kind": "polygon3", "closed": "false", "vertices": [[0, 0, 0], [1, 0, 0]]',
         "closed must be true or false"),
        ('"kind": "polygon3", "closed": 1, "vertices": [[0, 0, 0], [1, 0, 0]]',
         "closed must be true or false"),
        ('"kind": "polygon3", "vertices": [[1, 0, 1], [0, 1]]', "vertices must be a list"),
        ('"kind": "polygon3", "vertices": "abc"', "vertices must be a list"),
        ('"kind": "polygon3", "vertices": {"x": 1}', "vertices must be a list"),
        ('"kind": "polygon3", "vertices": [["1", "0", "1"], ["0", "1", "0"]]',
         "vertices must be a list"),
        ('"kind": "polygon3", "vertices": [[true, 0, 1], [0, 1, 0]]', "vertices must be a list"),
        ('"kind": "polygon3", "vertices": [[null, 0, 1], [0, 1, 0]]', "vertices must be a list"),
        ('"kind": "polygon3", "vertices": ["abc", "def"]', "vertices must be a list"),
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[1, 0, 1], [0, 1]]', "directions must be a list"),
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], "directions": "abc"',
         "directions must be a list"),
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[0, 0, 1], [false, 0, 1]]', "directions must be a list"),
        ('"kind": "polygon3", "vertices": [[0, 0, 0], [1, 0, 0]], "metadata": [1]',
         "metadata must be a JSON object"),
        ('"kind": "polygon3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[0, 0, 1], [0, 0, 1]]', "^polygon3 does not carry directions$"),
        ('"kind": "polygon3", "vertices": [[1%s, 0, 0], [1, 0, 0]]' % ("0" * 400),
         "vertices: a coordinate is too large for a float"),
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0]], '
         '"directions": [[0, 0, 1], [0, -1%s, 1]]' % ("0" * 400),
         "directions: a coordinate is too large for a float"),
    ], ids=["nan-direction", "infinite-direction", "closed-string", "closed-number",
            "ragged-vertices", "string-vertices", "object-vertices", "string-entries",
            "boolean-entry", "null-entry", "string-rows", "ragged-directions",
            "string-directions", "boolean-direction", "metadata-list", "polygon3-directions",
            "huge-integer-vertex", "huge-integer-direction"])
    def test_malformed_field(self, tmp_path, fields, message):
        path = tmp_path / "x.json"
        path.write_text("{%s}" % fields)
        with pytest.raises(DocumentError, match=message):
            read_document(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "polygon3"}')
        with pytest.raises(DocumentError):
            read_document(path)

    @pytest.mark.parametrize("vertices, message", [
        ("[]", "vertices must be a nonempty list of coordinates"),
        ("[[]]", "polygon3 needs 3-vectors, got arity 0"),
    ], ids=["no-rows", "empty-row"])
    def test_empty_vertices(self, tmp_path, vertices, message):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "polygon3", "vertices": %s}' % vertices)
        with pytest.raises(DocumentError, match=message):
            read_document(path)


def _assert_read_as_numpy_would(path, keys):
    doc, payload = read_document(path), json.loads(path.read_text())
    for key in keys:
        expected = np.asarray(payload[key], dtype=float)
        got = getattr(doc, key)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestReaderArrays:
    def test_mixed_int_float_rows_bit_identical(self, tmp_path):
        rows = [[-0.0, 5e-324, 1.7976931348623157e308],
                [2**53 + 1, 10**20, -(2**53 + 1)],
                [0, -7, 0.1]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "polygon3", "vertices": rows}))
        _assert_read_as_numpy_would(path, ["vertices"])
        assert np.signbit(read_document(path).vertices[0, 0])

    def test_large_framed3_bit_identical(self, rng, tmp_path):
        n = 10_000
        path = tmp_path / "big.json"
        write_document(PolygonDocument("framed3", False, rng.normal(size=(n, 3)) * 1e3,
                                       directions=rng.normal(size=(n, 3))), path)
        _assert_read_as_numpy_would(path, ["vertices", "directions"])


# whole-file reads and writes: core.read_text and core.write_text

def text_mode_read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


PIECES = ["a", "1.5", "\u00e9", "\U0001d11e", "\ufeff", "\n", "\r", "\r\n", "\n\r", " ", "\t"]


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=60))
@settings(max_examples=200, deadline=None)
def test_read_text_is_the_text_mode_read(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("text") / "t.txt"
    path.write_bytes("".join(pieces).encode("utf-8"))
    assert read_text(path) == text_mode_read(path)


@pytest.mark.parametrize("head", [0, 8191, 8192, 20_000])
def test_read_text_translates_newlines_past_the_text_buffer(tmp_path, head):
    path = tmp_path / "t.txt"
    path.write_bytes(b"x" * head + b"\r\n\r\r\n\n\r" + b"y" * 9000 + b"\r")
    assert read_text(path) == text_mode_read(path)


@pytest.mark.skipif(not os.path.exists("/proc/self/cmdline"), reason="needs procfs")
def test_read_text_reads_on_where_the_size_is_not_known():
    # procfs reports no size; the reader reads on to the end, as for a pipe
    assert os.stat("/proc/self/cmdline").st_size == 0
    assert read_text("/proc/self/cmdline") == text_mode_read("/proc/self/cmdline") != ""


@pytest.mark.parametrize("before", [b"", b"{", b"{\r\n" * 3, b" " * 8191,
                                    "\u00e9".encode("utf-8") * 6000])
def test_non_utf8_names_the_text_mode_byte_offset(tmp_path, before):
    path = tmp_path / "bad.json"
    path.write_bytes(before + b"\xe9}")
    with pytest.raises(UnicodeDecodeError) as want:
        text_mode_read(path)
    assert want.value.start == len(before)
    with pytest.raises(DocumentError) as got:
        read_document(path)
    assert str(got.value) == f"{path}: not UTF-8 text (byte {len(before)})"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_documents_read_as_their_lf_form(rng, tmp_path, newline):
    f = random_generic_framed(rng, 9)
    lf, other = tmp_path / "lf.json", tmp_path / "other.json"
    payload = {"kind": "framed3", "closed": False, "vertices": f.polygon.points.tolist(),
               "directions": f.directions.values.tolist(), "metadata": {"note": "a"}}
    lf.write_text(json.dumps(payload, indent=1) + "\n")
    other.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
    rows = [" # comment", "", *(f"{x!r}, {y!r} {z!r}" for x, y, z in f.polygon.points.tolist())]
    lf_csv, other_csv = tmp_path / "lf.csv", tmp_path / "other.csv"
    lf_csv.write_text("\n".join(rows) + "\n")
    other_csv.write_bytes(newline.join(rows).encode() + newline.encode())
    for a, b in ((lf, other), (lf_csv, other_csv)):
        want, got = read_document(a), read_document(b)
        assert (got.kind, got.closed, got.metadata) == (want.kind, want.closed, want.metadata)
        for key in ("vertices", "directions"):
            assert getattr(got, key) is None or (
                getattr(got, key).tobytes() == getattr(want, key).tobytes())


def test_malformed_crlf_documents_keep_the_text_mode_positions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\r\n "kind": "polygon3",\r\n "vertices": [[0, 0, 1],\r\n oops]\r\n}\r\n')
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text_mode_read(path))
    with pytest.raises(DocumentError) as got:
        read_document(path)
    assert str(got.value) == f"invalid JSON: {want.value}"
    # char 49 counts each CRLF as one character, as text mode reads it
    assert str(got.value).endswith("line 4 column 2 (char 49)")
    csv = tmp_path / "bad.csv"
    csv.write_bytes(b"# head\r\n\r\n1 2 3\r\n4 five 6\r\n")
    with pytest.raises(DocumentError, match="^line 4: not a coordinate row$"):
        read_document(csv)


def test_json_nested_too_deep_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 10**5
    path.write_text('{"kind": ' + "[" * depth + "]" * depth + "}")
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("evpoly: invalid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-document"])
def test_unencodable_metadata_leaves_the_path_untouched(tmp_path, existing):
    path = tmp_path / "doc.json"
    if existing:
        write_document(PolygonDocument("polygon3", False, np.eye(3)), path)
    before = path.read_bytes() if existing else None
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_document(PolygonDocument("polygon3", False, np.eye(3) + 1, None, {"x": object()}),
                       path)
    assert (path.read_bytes() if path.exists() else None) == before


def test_short_writes_are_resumed(tmp_path, monkeypatch):
    parts = ["evpoly \u00e9\n" * 5, "", "x", "\U0001d11e" * 4]
    sizes = short_writes(monkeypatch)
    write_text(tmp_path / "t.txt", *parts)
    assert (tmp_path / "t.txt").read_bytes() == "".join(parts).encode("utf-8")
    assert sizes == [min(7, len(p.encode()) - k) for p in parts for k in range(0, len(p.encode()), 7)]


def test_bytes_parts_are_written_as_they_are(tmp_path, monkeypatch):
    parts = ["evpoly \u00e9\n", b"v 1 2 3\n" * 3, b"", "x", b"\xff"]
    sizes = short_writes(monkeypatch)
    write_text(tmp_path / "t.txt", *parts)
    data = [p if isinstance(p, bytes) else p.encode("utf-8") for p in parts]
    assert (tmp_path / "t.txt").read_bytes() == b"".join(data)
    assert sizes == [min(7, len(d) - k) for d in data for k in range(0, len(d), 7)]


def failing(error):
    def fail(*args):
        raise error
    return fail


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_descriptor_outlives_a_read_or_a_write(tmp_path, monkeypatch):
    good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "out.json"
    write_document(PolygonDocument("polygon3", False, np.eye(3) + 1), good)
    bad.write_bytes(b"{\xe9}")
    refused = PolygonDocument("polygon3", False, np.eye(3) + 1, None, {"x": object()})
    cases = [
        (lambda: read_document(good), None),
        (lambda: write_document(read_document(good), out), None),
        (lambda: read_document(tmp_path / "none.json"), FileNotFoundError),
        (lambda: read_document(tmp_path), IsADirectoryError),
        (lambda: read_document(bad), DocumentError),
        (lambda: write_document(read_document(good), tmp_path), IsADirectoryError),
        (lambda: write_document(read_document(good), good / "x"), NotADirectoryError),
        (lambda: write_document(refused, out), TypeError),
    ]
    for fn, error in cases:
        before = open_fds()
        if error is None:
            fn()
        else:
            with pytest.raises(error):
                fn()
        assert open_fds() == before, error
    # a read or a write that fails once the file is open
    doc = read_document(good)
    for name, error in (("read", OSError(5, "Input/output error")),
                        ("write", OSError(28, "No space left on device"))):
        monkeypatch.setattr(core, "os", FakeOs(**{name: failing(error)}))
        before = open_fds()
        with pytest.raises(OSError, match=error.strerror):
            read_document(good) if name == "read" else write_document(doc, out)
        assert open_fds() == before, name


# ---------------------------------------------------------------- strict JSON

BAD_VALUES = pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])


@BAD_VALUES
def test_json_text_names_the_key_of_a_value_that_is_not_finite(bad):
    report = {"n_vertices": 3, "volume_c": 1.5, "volume_spread": float(bad)}
    with pytest.raises(GeometryError, match=r"^volume_spread: not finite, and JSON has no "):
        json_text(report)
    nested = {"volume_c": 1.5, "sigma": {"base": 0, "grid": "side", "values": [1.0, bad]}}
    with pytest.raises(GeometryError, match=r"^sigma\.values: not finite"):
        json_text(nested)
    finite = dict(nested, sigma={"base": 0, "values": [1.0, 2.0]})
    assert json_text(finite) == json.dumps(finite) + "\n"


def circular_payloads():
    loop, own = [], {}
    loop.append(loop)
    own["self"] = own
    return {"list": {"a": loop}, "map": {"m": own}, "nested": {"x": 1.5, "m": {"a": [loop]}}}


@pytest.mark.parametrize("name", ["list", "map", "nested"])
def test_json_text_raises_a_circular_reference_as_json_dumps_does(name):
    # only a value that is not finite names its key: a cycle is no such value,
    # and no map is searched for it a second time
    payload = circular_payloads()[name]
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        json.dumps(payload)
    with pytest.raises(ValueError, match="^Circular reference detected$") as info:
        json_text(payload)
    assert type(info.value) is ValueError


def test_write_document_leaves_circular_metadata_to_json(tmp_path):
    doc = PolygonDocument("polygon3", False, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                          metadata=circular_payloads()["map"])
    path = tmp_path / "d.json"
    with pytest.raises(ValueError, match="^Circular reference detected$") as info:
        write_document(doc, path)
    assert type(info.value) is ValueError
    assert not path.exists()


@BAD_VALUES
def test_write_document_refuses_metadata_that_is_not_finite(bad, tmp_path):
    doc = PolygonDocument("polygon3", False, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                          metadata={"volume_c": 1.0, "volume_spread": bad, "truncated": False})
    path = tmp_path / "d.json"
    with pytest.raises(GeometryError, match=r"^metadata\.volume_spread: not finite"):
        write_document(doc, path)
    assert not path.exists()


# ------------------------------------------------ large arrays, array-at-a-time

def _repr_cases(rng) -> dict:
    """Doubles whose JSON text must be ``float.__repr__``'s, by family."""
    bits = rng.integers(0, 2**64, 2 * 10**5, dtype=np.uint64, endpoint=False).view(float)
    decimals = rng.standard_normal(10**4) * 10.0 ** rng.integers(-6, 18, 10**4)
    places = rng.integers(0, 8, 10**4).tolist()

    def neighbours(values):
        values = np.array(values)
        return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])

    return {
        "random-bits": bits[np.isfinite(bits)],
        "integers": rng.integers(-2**53, 2**53, 10**4).astype(float),
        "powers": neighbours([10.0**e for e in range(-323, 309)]
                             + [2.0**e for e in range(-1074, 1024)]),
        "rounded-decimals": np.array([round(v, d) for v, d in zip(decimals.tolist(), places)]),
        # repr switches to the exponent form below 1e-4 and from 1e16
        "exponent-edges": neighbours([1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0, 123.0, 0.001]),
        "zeros-and-subnormals": np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                          -1e-310, 2.2250738585072014e-308]),
    }


def test_float_writers_are_pinned_on_random_bit_patterns():
    """``tests/pin_float_writers.py`` at a tier-1 size: 10^5 patterns and the
    16,384 doubles of every biased exponent, through both writers."""
    assert pin_float_writers.main(["100000", "3"]) == 0


def eager_g(k: int) -> int:
    """Schubfach's g(k) from its definition, floor(10^-k 2^(125 - floor(-k log2 10))) + 1."""
    e = (10**-k).bit_length() - 1 if k <= 0 else -(10**k).bit_length()  # floor(-k log2 10)
    scaled = Fraction(10) ** -k * Fraction(2) ** (125 - e)
    assert 2**125 <= scaled < 2**126
    return math.floor(scaled) + 1


def test_every_g_row_built_on_demand_is_schubfachs(monkeypatch):
    monkeypatch.setattr(documents, "_G", np.zeros_like(documents._G))
    monkeypatch.setattr(documents, "_MADE", np.zeros_like(documents._MADE))
    k = np.arange(-325, 293)  # Schubfach's [-324, 292], and one below for the 17-digit mode
    a1, a0, b1, b0 = (limb.tolist() for limb in documents._g(k[::-1]))
    assert documents._MADE.all()
    built = [((a1 << 32 | a0) << 63) | b1 << 32 | b0 for a1, a0, b1, b0 in zip(a1, a0, b1, b0)]
    assert built == [eager_g(k) for k in k[::-1].tolist()]


def test_array_text_is_float_repr(rng):
    for family, x in _repr_cases(rng).items():
        if family != "random-bits":
            x = np.concatenate([x, -x])
        assert documents._array_text(x) == json.dumps(x.tolist()), family


@pytest.mark.parametrize("size", [documents.ARRAY_TEXT_MIN - 1, documents.ARRAY_TEXT_MIN])
def test_json_text_is_json_dumps_on_both_sides_of_the_switch(rng, size):
    line = rng.standard_normal(size) * 1e3
    rows = rng.standard_normal((size, 3))
    payload = {"sigma": {"base": 1, "values": line}, "vertices": rows, "wide": rows.T,
               "strided": line[::-1], "ints": np.arange(size), "cube": rows.reshape(-1, 3, 1),
               "note": "\0array\0", "none": None}  # the note reads as a deferred array's hole
    listed = {"sigma": {"base": 1, "values": line.tolist()}, "vertices": rows.tolist(),
              "wide": rows.T.tolist(), "strided": line[::-1].tolist(),
              "ints": list(range(size)), "cube": rows.reshape(-1, 3, 1).tolist(),
              "note": "\0array\0", "none": None}
    assert json_text(payload) == json.dumps(listed) + "\n"
    del payload["note"], listed["note"]
    assert json_text(payload) == json.dumps(listed) + "\n"


@BAD_VALUES
@pytest.mark.parametrize("size", [3, documents.ARRAY_TEXT_MIN])
def test_arrays_that_are_not_finite_are_refused_by_key(bad, size, tmp_path):
    values = np.ones(size)
    values[-1] = bad
    with pytest.raises(GeometryError, match=r"^sigma\.values: not finite, and JSON has no "):
        json_text({"n_vertices": size, "sigma": {"base": 0, "values": values}})
    path = tmp_path / "d.json"
    path.write_text("before")
    doc = PolygonDocument("polygon3", False, np.eye(3) + 1,
                          metadata={"terms": values.reshape(-1, 1)})
    with pytest.raises(GeometryError, match=r"^metadata\.terms: not finite"):
        write_document(doc, path)
    assert path.read_text() == "before"
