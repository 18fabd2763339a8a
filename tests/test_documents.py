import numpy as np
import pytest

from conftest import random_generic_framed

from evpoly.documents import (
    DocumentError,
    PolygonDocument,
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
    ], ids=["nan-direction", "infinite-direction", "closed-string", "closed-number",
            "ragged-vertices", "string-vertices", "object-vertices", "string-entries",
            "boolean-entry", "null-entry", "string-rows", "ragged-directions",
            "string-directions", "boolean-direction", "metadata-list"])
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
