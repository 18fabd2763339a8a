import json

import numpy as np
import pytest

from conftest import random_cone_fixture

from evpoly.cli import main
from evpoly.constructions import (
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    random_equal_area,
    sample_curve,
    silhouette_lift,
)
from evpoly.darboux import FramedPolygon
from evpoly.documents import PolygonDocument, read_document, write_document


def write_framed(f, path):
    write_document(PolygonDocument.from_framed(f), path)
    return str(path)


@pytest.fixture
def spiral_doc(tmp_path):
    poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 120)
    f = FramedPolygon.silhouette(poly.points, closed=False)
    return write_framed(f, tmp_path / "spiral.json")


class TestAnalyze:
    def test_cone_classification(self, rng, tmp_path, capsys):
        f, apex = random_cone_fixture(rng, 40)
        path = write_framed(f, tmp_path / "cone.json")
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "cone"
        assert np.abs(np.array(report["apex"]) - apex).max() < 1e-8

    def test_silhouette_lift_single_line(self, rng, tmp_path, capsys):
        G = random_equal_area(12, rng)
        phi = silhouette_lift(G, [0.2, -0.1])
        path = tmp_path / "lift.json"
        write_document(PolygonDocument.from_polygon(phi), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["focal"] == "single_line"

    def test_bare_polygon_without_origin_exits_1(self, rng, tmp_path, capsys):
        pts = rng.normal(size=(8, 3))
        path = tmp_path / "p.json"
        write_document(PolygonDocument("polygon3", False, pts), path)
        assert main(["analyze", str(path)]) == 1
        assert "--origin" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("origin", ["0,0,zero", "0,0,nan", "0,inf,0", "1,2", "1,2,3,4"])
    def test_malformed_origin_exits_1(self, rng, tmp_path, capsys, origin):
        path = tmp_path / "p.json"
        write_document(PolygonDocument("polygon3", False, rng.normal(size=(8, 3))), path)
        assert main(["analyze", str(path), "--origin", origin]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evpoly: --origin")

    def test_json_output_file(self, spiral_doc, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", spiral_doc, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["volume_spread"] < 1e-9
        assert "tau" in report


class TestResample:
    def test_idempotent_output(self, spiral_doc, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["resample", spiral_doc, "--out", str(out)]) == 0
        src = read_document(spiral_doc)
        dst = read_document(out)
        assert np.allclose(src.vertices, dst.vertices, atol=1e-12)
        assert dst.metadata["volume_spread"] <= 1e-9

    def test_short_input_exits(self, rng, tmp_path):
        pts = rng.normal(size=(3, 3))
        f = FramedPolygon.build(pts, rng.normal(size=(3, 3)))
        path = write_framed(f, tmp_path / "short.json")
        assert main(["resample", path, "--out", str(tmp_path / "o.json")]) == 2


class TestPlength:
    def test_spiral_auto_seed_runs(self, tmp_path, capsys):
        pts = sample_curve(ExampleSpiral(), 0.0, 2 * np.pi, 60,
                           GridScheme.HALF_OPEN_STEP)
        path = tmp_path / "spiral2.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["plength", str(path), "--auto-seed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "pl1" in report and "pl2" in report

    def test_concave_polygon_exits_2(self, tmp_path, capsys):
        pts = np.array([[0, 0], [1, 0], [2, 1], [1.2, 1.1], [0.2, 2]], float)
        path = tmp_path / "cc.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["plength", str(path)]) == 2
        assert "b(i) > 0" in capsys.readouterr().err


class TestMeshExports:
    def test_developable(self, spiral_doc, tmp_path):
        obj = tmp_path / "dev.obj"
        assert main(["developable", spiral_doc, "--obj", str(obj)]) == 0
        text = obj.read_text()
        assert text.count("\nf ") > 0

    def test_focal(self, rng, tmp_path):
        G = random_equal_area(14, rng)
        phi = silhouette_lift(G, [0.1, 0.2])
        f = FramedPolygon.silhouette(phi.points, closed=False)
        path = write_framed(f, tmp_path / "lift.json")
        obj = tmp_path / "focal.obj"
        assert main(["focal", path, "--obj", str(obj)]) == 0
        assert "\nl " in obj.read_text()

    def test_focal_skips_parallel_sides(self, tmp_path, capsys):
        # prism frame: every support line pair is parallel, all O at infinity
        t = np.linspace(0, 3, 10)
        pts = np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1)
        # equal-volume needs an equal-area shadow; use a circle arc scaled
        d = np.tile([0.0, 0.0, 1.0], (10, 1))
        f = FramedPolygon.build(pts, d)
        path = write_framed(f, tmp_path / "prism.json")
        code = main(["focal", path, "--obj", str(tmp_path / "o.obj")])
        assert code == 2
        assert "infinity" in capsys.readouterr().err


class TestTable1:
    def test_default_row_subset(self, capsys):
        assert main(["table1", "--sizes", "10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "N,h,pl1,pl2"
        n, h, p1, p2 = out[1].split(",")
        assert h == "0.62832"
        assert p1 == "4.26627"

    def test_csv_file(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table1", "--sizes", "10,100", "--csv", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_small_n_exits_1(self):
        assert main(["table1", "--sizes", "4"]) == 1

    @pytest.mark.parametrize("sizes", ["10,ten", "ten", "1.5", ","])
    def test_malformed_sizes_exit_1(self, capsys, sizes):
        assert main(["table1", "--sizes", sizes]) == 1
        assert capsys.readouterr().err.startswith("evpoly: --sizes")
