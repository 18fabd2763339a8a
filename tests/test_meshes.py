import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import face_planarity, random_equal_volume_polygon, random_generic_framed
from test_documents import _repr_cases

from evpoly import documents
from evpoly.core import GeometryError, Grid, GridSeq, Topology
from evpoly.darboux import FramedPolygon, osculating_developable, parallel_darboux
from evpoly.invariants import focal_data, focal_set_mesh
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
    assert face_planarity(flat)[0] == pytest.approx(0.0, abs=1e-14)
    bent = Mesh(np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]]),
                faces=[[0, 1, 2, 3]])
    assert face_planarity(bent)[0] > 0.1


@pytest.mark.parametrize("faces, lines, fault", [
    ([[0, 1, 2, 0], [0, 1, 2]], [], "faces must be records of one length, at least 3"),
    ([[0, 1, 2]], [[0, 2], [0, 1, 2]], "lines must be records of one length, at least 2"),
    ([[0, 1, 2]], [[0, 1], []], "lines must be records of one length, at least 2"),
    ([[0, 1]], [], "faces must be records of one length, at least 3"),
    ([[0, 1, 2]], [[0], [1]], "lines must be records of one length, at least 2"),
    ([0, 1, 2], [], "faces must be records of one length, at least 3"),
    ([[0, 1, 5]], [], "face index out of range"),
    ([[0, 1, 2]], [[0, 3]], "line index out of range"),
    ([], [[-1, 2]], "line index out of range"),
    ([[0.9, 1.5, 2.99]], [], "face indices must be integers, not float64"),
    ([[0, 1, 2]], [[True, False]], "line indices must be integers, not bool"),
], ids=["ragged-faces", "ragged-lines", "ragged-short-lines", "short-faces", "short-lines",
        "flat-faces", "face-range", "line-range", "negative-line", "fractional-faces",
        "boolean-lines"])
def test_bad_records_are_refused(faces, lines, fault):
    """Ragged, short, out-of-range and non-integer index records raise GeometryError.

    numpy would raise its own errors on the first, and would truncate the last.
    """
    with pytest.raises(GeometryError, match=fault):
        Mesh(np.zeros((3, 3)), faces, lines)


def test_records_are_index_arrays():
    mesh = Mesh(np.zeros((4, 3)), faces=[[0, 1, 2, 3]])
    assert mesh.faces.shape == (1, 4) and mesh.faces.dtype == np.intp
    assert mesh.lines.shape == (0, 2)
    assert Mesh(np.zeros((4, 3)), faces=np.empty((0, 4), dtype=int)).faces.shape == (0, 4)


def test_obj_text_matches_per_record_formatting(tmp_path, rng):
    # the writer formats whole blocks at once; each record must read as
    # the per-record f-string formatting it replaced
    v = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-300, 300, size=(7, 3))
    v[0] = [0.0, -0.0, np.inf]
    v[1] = [-np.inf, np.nan, 5e-324]
    faces = [[0, 1, 2, 3], [2, 3, 4, 5], [5, 6, 0, 1]]
    lines = [[1, 6], [0, 3]]
    mesh = Mesh(v, faces, lines)
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    want = ["# evpoly mesh"]
    want += [f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}" for x in v]
    want += ["f " + " ".join(str(i + 1) for i in r) for r in faces]
    want += ["l " + " ".join(str(i + 1) for i in r) for r in lines]
    assert path.read_text() == "\n".join(want) + "\n"


def test_shared_rows(tmp_path):
    rows = np.array([[0., 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    mesh = Mesh(rows, faces=[[0, 1, 2, 3], [4, 5, 6, 7]], v_rows=[0, 1, 2, 3, 1, 0, 3, 2])
    assert np.array_equal(mesh.vertices, rows[[0, 1, 2, 3, 1, 0, 3, 2]])
    path = tmp_path / "m.obj"
    mesh.write_obj(path)
    lines = path.read_text().splitlines()
    assert lines[1:9] == ["v 0 0 0", "v 1 0 0", "v 1 1 0", "v 0 1 0",
                          "v 1 0 0", "v 0 0 0", "v 0 1 0", "v 1 1 0"]
    assert lines[9:] == ["f 1 2 3 4", "f 5 6 7 8"]
    with pytest.raises(GeometryError, match="vertex row out of range"):
        Mesh(rows, faces=[], v_rows=[0, 4])
    with pytest.raises(GeometryError, match="face index out of range"):
        Mesh(rows, faces=[[0, 1, 2]], v_rows=[3, 2])


def per_record_obj(mesh) -> str:
    """OBJ text of ``mesh`` with each record formatted on its own."""
    want = ["# evpoly mesh"]
    want += [f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}" for x in mesh.vertices]
    want += ["f " + " ".join(str(i + 1) for i in r) for r in mesh.faces]
    want += ["l " + " ".join(str(i + 1) for i in r) for r in mesh.lines]
    return "\n".join(want) + "\n"


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_developable_obj_matches_per_record_formatting(tmp_path, rng, closed):
    f = random_generic_framed(rng, 9, closed=closed)
    df = parallel_darboux(f)
    mesh = osculating_developable(df)
    # each quad keeps its own four v records, P(k) -+ X(k) and P(k+1) +- X(k+1);
    # neighbours share two rows
    # along the rulings sign(xi . d) d of the unit directions d
    dh = f.unit_directions.values
    ruling = np.sign(np.einsum("ij,ij->i", df.xi.values, dh))[:, None] * dh
    x = 2.0 * f.polygon.diameter() * ruling
    p, k = f.polygon.points, np.arange(len(f.polygon.sides()))
    k1 = (k + 1) % len(p)
    quads = np.stack([p[k] - x[k], p[k] + x[k], p[k1] + x[k1], p[k1] - x[k1]], axis=1)
    assert np.array_equal(mesh.vertices, quads.reshape(-1, 3))
    assert len(mesh.rows) == 2 * len(p)
    path = tmp_path / "d.obj"
    mesh.write_obj(path)
    assert path.read_text() == per_record_obj(mesh)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_focal_set_obj_matches_per_record_formatting(tmp_path, rng, closed):
    p = random_equal_volume_polygon(rng, 12)
    fd = focal_data(parallel_darboux(FramedPolygon.silhouette(p.points)))
    if closed:
        # a closed polygon whose focal set exists needs sum tau = 0; the
        # same lines on the closed topology add the face that wraps around.
        # Q, built on first read from mu, is kept from the open polygon.
        closed_fd = dataclasses.replace(fd, mu=GridSeq(fd.mu.values, Grid.SIDE, Topology.CLOSED))
        vars(closed_fd)["Q"] = fd.Q
        fd = closed_fd
    mesh = focal_set_mesh(fd)
    assert len(mesh.faces) == len(mesh.lines) - 1 + closed
    path = tmp_path / "f.obj"
    mesh.write_obj(path)
    assert path.read_text() == per_record_obj(mesh)


def exact_ties(rng) -> np.ndarray:
    """Doubles of exactly 18 significant digits, the last a 5: each is N 2^-j for an odd N,
    whose digits are those of N 5^j, so '%.17g' rounds each half to even."""
    cases = [1 + k * 2.0**-17 for k in range(1, 2**12, 2)]
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        cases += [n * 2.0**-j for n in rng.integers(lo, hi + 1, 40) | 1 if n <= hi]
    ties = np.array(cases)
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties.tolist())
    return ties


def obj_cases(rng) -> dict:
    """Doubles whose OBJ text must be ``'%.17g'``'s, by family."""
    powers = 10.0 ** np.arange(-307, 309)
    edges = np.array([1e-4, 1e-5, 1e16, 1e17, 99999999999999984.0, 1e-4 * (1 - 2**-53)])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    return {**_repr_cases(rng), "ties": exact_ties(rng),
            "round-ups": np.concatenate([powers, np.nextafter(powers, 0)]), "switch-edges": edges,
            "specials": np.array([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e-310, np.inf,
                                  -np.inf, np.nan])}


def test_obj_writer_is_percent_17g(tmp_path, rng):
    """Every family of the JSON writer's pins, exact ties, round-ups to a power of ten
    and the edges of the exponent form, both signs, with faces and lines of every
    index width, and the same rows through ``v_rows``."""
    path = tmp_path / "m.obj"
    for family, x in obj_cases(rng).items():
        x = x[:3 * 10**4]  # pin_float_writers.py takes random bit patterns at any size
        x = np.concatenate([x, -x, np.zeros(-2 * x.size % 3)]).reshape(-1, 3)
        n = len(x)
        faces, lines = rng.integers(0, n, (n // 2, 4)), rng.integers(0, n, (n // 3, 2))
        for mesh in (Mesh(x, faces, lines), Mesh(x, faces[:, :3], v_rows=rng.permutation(n))):
            mesh.write_obj(path)
            assert path.read_text() == per_record_obj(mesh), family


def test_obj_of_no_rows(tmp_path):
    path = tmp_path / "m.obj"
    Mesh(np.empty((0, 3)), faces=[], lines=[]).write_obj(path)
    assert path.read_text() == "# evpoly mesh\n"


def test_a_small_mesh_builds_only_the_g_rows_it_needs(tmp_path, monkeypatch):
    """Schubfach's g(k) rows are built on demand: the OBJ writer takes one for each
    float's k, one below Schubfach's own, floor(q log10 2) for v = c 2^q."""
    monkeypatch.setattr(documents, "_G", np.zeros_like(documents._G))
    monkeypatch.setattr(documents, "_MADE", np.zeros_like(documents._MADE))
    rows = np.array([[1.0, -2.5, 3e-7], [0.0, 1e300, 12345.678], [5e-324, np.inf, 0.1]])
    Mesh(rows, faces=[[0, 1, 2]]).write_obj(tmp_path / "m.obj")
    normal = [v for v in rows.ravel().tolist() if math.isfinite(v) and abs(v) >= 2.0**-1022]
    want = {math.floor((math.frexp(v)[1] - 53) * math.log10(2)) - 1 for v in normal}
    assert set((np.flatnonzero(documents._MADE) + documents._K0).tolist()) == want
