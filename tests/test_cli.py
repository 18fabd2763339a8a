import json
import warnings

import numpy as np
import pytest

from conftest import random_cone_fixture

from evpoly.cli import build_parser, main
from evpoly.constructions import (
    Ellipse,
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


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["plength", "x.csv", "--a1", "one"],
        ["frobnicate"],
        ["analyze", "in.json", "--tol", "1e-3"],
    ], ids=["missing-input", "a1-not-a-number", "unknown-subcommand", "removed-tol"])
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("evpoly: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["plength", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: evpoly")

    def test_parser_is_built_once_and_keeps_no_state(self, rng, tmp_path, capsys):
        G = random_equal_area(12, rng)
        path = tmp_path / "p.json"
        write_document(PolygonDocument.from_polygon(silhouette_lift(G, [0.2, -0.1])), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        assert main(["analyze", str(path)]) == 1
        assert "--origin" in capsys.readouterr().err
        assert build_parser() is build_parser()


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

    def test_overflowing_seeds_exit_2_with_one_diagnostic(self, tmp_path, capsys):
        pts = sample_curve(Ellipse(2.0, 1.0), 0.2, 1.6, 100, GridScheme.INCLUDE_BOTH_ENDS)
        path = tmp_path / "arc.csv"
        np.savetxt(path, pts, delimiter=",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["plength", str(path), "--a1", "1e300", "--a2", "1e300", "--c", "1"])
        assert code == 2
        assert capsys.readouterr().err == "evpoly: vertex 2: lift recursion overflowed\n"

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

    @pytest.mark.parametrize("command", ["developable", "focal"])
    @pytest.mark.parametrize("extent", ["nan", "inf", "0", "-1"])
    def test_extent_must_be_finite_positive(self, spiral_doc, tmp_path, capsys,
                                            command, extent):
        obj = tmp_path / "out.obj"
        assert main([command, spiral_doc, "--obj", str(obj), "--extent", extent]) == 1
        assert capsys.readouterr().err.startswith("evpoly: argument --extent")
        assert not obj.exists()

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
