import numpy as np
import pytest

from evpoly.core import GeometryError
from evpoly.meshes import Mesh


def test_obj_export(tmp_path):
    mesh = Mesh(np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                faces=[[0, 1, 2, 3]], lines=[[0, 2]])
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    lines = path.read_text().splitlines()
    assert lines[1] == "v 0 0 0"
    assert "f 1 2 3 4" in lines
    assert "l 1 3" in lines


def test_obj_roundtrip_precision(tmp_path):
    v = np.array([[np.pi, np.e, 1 / 3]])
    mesh = Mesh(v, faces=[], lines=[])
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    rec = [float(x) for x in path.read_text().splitlines()[1].split()[1:]]
    assert np.array_equal(np.array(rec), v[0])


def test_face_planarity():
    flat = Mesh(np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                faces=[[0, 1, 2, 3]])
    assert flat.face_planarity()[0] == pytest.approx(0.0, abs=1e-14)
    bent = Mesh(np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]]),
                faces=[[0, 1, 2, 3]])
    assert bent.face_planarity()[0] > 0.1


def test_index_validation():
    with pytest.raises(GeometryError):
        Mesh(np.zeros((2, 3)), faces=[[0, 1, 5]])
    with pytest.raises(GeometryError):
        Mesh(np.zeros((3, 3)), faces=[[0, 1]])


def test_line_index_validation():
    with pytest.raises(GeometryError, match="line index out of range"):
        Mesh(np.zeros((3, 3)), faces=[[0, 1, 2]], lines=[[0, 3]])
    with pytest.raises(GeometryError, match="line index out of range"):
        Mesh(np.zeros((3, 3)), faces=[], lines=[[-1, 2]])


def test_ragged_faces(tmp_path):
    v = np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0], [2, 1, 0]])
    mesh = Mesh(v, faces=[[0, 1, 2, 3], [1, 4, 5], [4, 5, 2, 3, 0]], lines=[[0, 5], [1, 2, 3]])
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    lines = path.read_text().splitlines()
    assert lines[7:] == ["f 1 2 3 4", "f 2 5 6", "f 5 6 3 4 1", "l 1 6", "l 2 3 4"]
    with pytest.raises(GeometryError, match="at least 3"):
        Mesh(v, faces=[[0, 1, 2, 3], [1, 4]])


def test_obj_text_matches_per_record_formatting(tmp_path, rng):
    # the writer formats whole blocks at once; each record must read as
    # the per-record f-string formatting it replaced
    v = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))
    v[0] = [0.0, -0.0, np.inf]
    v[1] = [-np.inf, np.nan, 5e-324]
    faces = [[0, 1, 2], [2, 3, 4, 5], [5, 6, 0]]
    lines = [[1, 6]]
    mesh = Mesh(v, faces, lines)
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    want = ["# evpoly mesh"]
    want += [f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}" for x in v]
    want += ["f " + " ".join(str(i + 1) for i in r) for r in faces]
    want += ["l " + " ".join(str(i + 1) for i in r) for r in lines]
    assert path.read_text() == "\n".join(want) + "\n"
