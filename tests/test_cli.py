import gc
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    open_fds,
    parabola_prism,
    random_cone_fixture,
    random_equal_area,
    random_equal_volume_polygon,
    random_generic_framed,
    reversed_frame,
    refuse_opening,
    short_writes,
    silhouette_lift,
    strict_json,
    zero_width_quads,
)

from evpoly.cli import _planar, build_parser, main
from evpoly.constructions import (
    Ellipse,
    ExampleSpiral,
    ExampleSpiralRepresentative,
    GridScheme,
    sample_curve,
)
from evpoly import cli
from evpoly.core import Polygon3
from evpoly.darboux import FramedPolygon, classify_osculating, parallel_darboux
from evpoly.documents import PolygonDocument, read_document, write_document


def write_framed(f, path):
    write_document(PolygonDocument.from_framed(f), path)
    return str(path)


@pytest.fixture
def spiral_doc(tmp_path):
    poly = sample_curve(ExampleSpiralRepresentative(), 0.0, 2 * np.pi, 120)
    f = FramedPolygon.silhouette(poly.points, closed=False)
    return write_framed(f, tmp_path / "spiral.json")


# Exit code, stdout and stderr of usage errors and help, as printed when the
# full parser read every command line (Python 3.11's argparse, 80 columns).
# A command's grammar now reads a plain line alone, and the full parser the
# others; the texts stay.
USAGE_TEXTS = [
    ([], 1, "", "evpoly: the following arguments are required: command (see evpoly --help)\n"),
    (["bogus"], 1, "",
     "evpoly: argument command: invalid choice: 'bogus' (choose from 'analyze', 'resample', "
     "'plength', 'developable', 'focal', 'table1') (see evpoly --help)\n"),
    (["analyze"], 1, "",
     "evpoly: the following arguments are required: input (see evpoly analyze --help)\n"),
    (["analyze", "x.json", "--bogus", "1"], 1, "",
     "evpoly: unrecognized arguments: --bogus 1 (see evpoly --help)\n"),
    (["--help"], 0, """\
usage: evpoly [-h] {analyze,resample,plength,developable,focal,table1} ...

Discrete affine invariants of polygons in 3-space

positional arguments:
  {analyze,resample,plength,developable,focal,table1}
    analyze             volumes, Frenet data and classification
    resample            equal-volume resampling of a framed polyline
    plength             discrete projective lengths of a planar polygon
    developable         export the osculating developable as OBJ
    focal               export the affine focal set as OBJ
    table1              projective-length convergence table

options:
  -h, --help            show this help message and exit
""", ""),
    (["analyze", "--help"], 0, """\
usage: evpoly analyze [-h] [--origin ORIGIN] [--json JSON] input

positional arguments:
  input

options:
  -h, --help       show this help message and exit
  --origin ORIGIN  x,y,z base point for a bare space polygon
  --json JSON      write the report to this path
""", ""),
    (["resample", "--help"], 0, """\
usage: evpoly resample [-h] --out OUT input

positional arguments:
  input

options:
  -h, --help  show this help message and exit
  --out OUT
""", ""),
    (["plength", "--help"], 0, """\
usage: evpoly plength [-h] [--auto-seed] [--report REPORT] input

positional arguments:
  input

options:
  -h, --help       show this help message and exit
  --auto-seed      seed the lift from the polygon (the default)
  --report REPORT  write the JSON report to this path
""", ""),
    (["developable", "--help"], 0, """\
usage: evpoly developable [-h] [--origin ORIGIN] --obj OBJ input

positional arguments:
  input

options:
  -h, --help       show this help message and exit
  --origin ORIGIN
  --obj OBJ
""", ""),
    (["focal", "--help"], 0, """\
usage: evpoly focal [-h] [--origin ORIGIN] --obj OBJ input

positional arguments:
  input

options:
  -h, --help       show this help message and exit
  --origin ORIGIN
  --obj OBJ
""", ""),
    (["table1", "--help"], 0, """\
usage: evpoly table1 [-h] [--sizes SIZES] [--csv CSV]

options:
  -h, --help     show this help message and exit
  --sizes SIZES
  --csv CSV      write the table to this path
""", ""),
    # a value that starts with "-" and a letter is an option to argparse
    (["analyze", "x.json", "--json", "-x.json"], 1, "",
     "evpoly: argument --json: expected one argument (see evpoly analyze --help)\n"),
    (["focal", "x.json", "--obj", "-f.obj"], 1, "",
     "evpoly: argument --obj: expected one argument (see evpoly focal --help)\n"),
]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["frobnicate"],
        ["analyze", "in.json", "--tol", "1e-3"],
    ], ids=["missing-input", "unknown-subcommand", "removed-tol"])
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

    @pytest.mark.parametrize("argv, code, out, err", USAGE_TEXTS,
                             ids=[" ".join(argv) or "no-arguments" for argv, *_ in USAGE_TEXTS])
    def test_usage_texts_are_those_of_the_full_parser(self, capsys, monkeypatch,
                                                      argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert capsys.readouterr() == (out, err)

    def test_parser_is_built_once_and_keeps_no_state(self, rng, tmp_path, capsys):
        G = random_equal_area(12, rng)
        path = tmp_path / "p.json"
        write_document(PolygonDocument.from_polygon(silhouette_lift(G, [0.2, -0.1])), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        assert main(["analyze", str(path)]) == 1
        assert "--origin" in capsys.readouterr().err
        assert build_parser() is build_parser()


def test_command_table_declares_only_what_the_plain_reader_reads():
    for fn, help_text, arguments in cli._COMMANDS.values():
        for name, kw in arguments:
            assert set(kw) <= {"help", "default", "required", "action"}, name
            assert kw.get("action", "store_true") == "store_true", name
            assert name[0] == "-" or not kw, name  # a positional is plain and required


@st.composite
def command_lines(draw):
    """A command line in the plain form, shuffled option by option, at times with
    one option or the positional left out, and with up to two odd tokens put in:
    an option string again, a prefix of one, ``--opt=value``, ``-``, ``--``,
    ``-h``, an empty string, or a value with or without a leading ``-``.  An
    option's value may start with ``-`` too, as ``-0,.`` or ``-a`` do."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[command][2]
    value = st.text(alphabet="ab0.,", max_size=4)
    signed = st.one_of(value, st.builds("-{}".format, value))
    chunks = []
    for name, kw in arguments:
        if name[0] != "-":
            chunks.append([draw(value)])
        elif kw.get("required") or draw(st.booleans()):
            chunks.append([name] + ([draw(signed)] if "action" not in kw else []))
    chunks = draw(st.permutations(chunks))
    if chunks and draw(st.booleans()):  # leave one out: maybe the positional or a required option
        chunks.pop()
    option = st.sampled_from(sorted([name for name, _ in arguments if name[0] == "-"]
                                    + ["-h", "--help"]))
    odd = st.one_of(
        option,
        st.builds(lambda o, k: o[:k], option, st.integers(1, 8)),
        st.builds("{}={}".format, option, value),
        st.sampled_from(["-", "--", "-h", ""]),
        st.builds("-{}".format, value),
        value,
    )
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), [draw(odd)])
    return command, [t for chunk in chunks for t in chunk]


@given(line=command_lines())
@example(line=("analyze", ["x.json", "--origin", "-1,0,0", "--json", "-.5"]))
@example(line=("table1", ["--sizes", "-1,2"]))
@settings(max_examples=400, deadline=None)
def test_plain_reader_builds_the_sub_parsers_namespace(line):
    """The direct reader declines, or reads the arguments argparse reads: its
    namespace holds what the sub-parser's Namespace holds."""
    command, tokens = line
    got = cli._read_plain(cli._GRAMMARS[command], tokens)
    if got is not None:
        with mock.patch.object(cli, "_read_plain", return_value=None):  # argparse reads the line
            want = cli._parse([command, *tokens])
        assert vars(got) == vars(want)


class TestAnalyze:
    def test_cone_classification(self, rng, tmp_path, capsys):
        f, apex = random_cone_fixture(rng, 40)
        path = write_framed(f, tmp_path / "cone.json")
        assert main(["analyze", path]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["classification"] == "cone"
        assert np.abs(np.array(report["apex"]) - apex).max() < 1e-8

    @pytest.mark.parametrize("scale", [1e-10, 1e-12])
    def test_small_cone_classification(self, rng, tmp_path, capsys, scale):
        # the planarity test is relative, so a small cone is no plane
        f, apex = random_cone_fixture(rng, 40)
        small = FramedPolygon.silhouette((f.polygon.points - apex) * scale)
        assert main(["analyze", write_framed(small, tmp_path / "cone.json")]) == 0
        assert strict_json(capsys.readouterr().out)["classification"] == "cone"

    def test_silhouette_lift_single_line(self, rng, tmp_path, capsys):
        G = random_equal_area(12, rng)
        phi = silhouette_lift(G, [0.2, -0.1])
        path = tmp_path / "lift.json"
        write_document(PolygonDocument.from_polygon(phi), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["focal"] == "single_line"

    def test_general_frame_with_a_single_line_focal_set(self, tmp_path, capsys):
        # the lift framed through the origin, with d(0) turned within face 0:
        # sigma, up to the scale of xi, changes on side 0 alone
        rng = np.random.default_rng(3)
        G = random_equal_area(12, rng)
        phi = silhouette_lift(G, 0.3 * rng.normal(size=2)).points
        d = phi.copy()
        d[0] = d[1] + 0.5 * (phi[1] - phi[0])
        f = FramedPolygon.build(phi, d)
        df = parallel_darboux(f)
        sigma = df.sigma.values
        assert np.ptp(sigma[1:]) < 1e-12 * np.abs(sigma[1]) < abs(sigma[0] - sigma[1])
        assert classify_osculating(df).kind.value == "general"
        assert main(["analyze", write_framed(f, tmp_path / "f.json")]) == 0
        report = strict_json(capsys.readouterr().out)
        assert (report["focal"], report["classification"]) == ("single_line", "single_line")

    def test_closed_polygon_reports_its_holonomy(self, tmp_path, capsys):
        # a closed 12-gon on the unit circle at z = 1, framed through the origin
        t = 2 * np.pi * np.arange(12) / 12
        path = tmp_path / "circle.json"
        write_document(PolygonDocument("polygon3", True, np.column_stack(
            [np.cos(t), np.sin(t), np.ones(12)])), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["holonomy"] == 1.0000000000000002
        assert (report["classification"], report["focal"]) == ("planar", "single_line")

    def test_bare_polygon_without_origin_exits_1(self, rng, tmp_path, capsys):
        pts = rng.normal(size=(8, 3))
        path = tmp_path / "p.json"
        write_document(PolygonDocument("polygon3", False, pts), path)
        assert main(["analyze", str(path)]) == 1
        assert "--origin" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out_flag", [
        ("analyze", "--json"), ("developable", "--obj"), ("focal", "--obj")])
    @pytest.mark.parametrize("origin", ["0,0,0", "zero"])
    def test_origin_with_framed_document_exits_1(self, spiral_doc, tmp_path, capsys,
                                                 command, out_flag, origin):
        out = tmp_path / "out"
        assert main([command, spiral_doc, "--origin", origin, out_flag, str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("evpoly: a framed3 document carries its own directions; "
                       "--origin only frames a bare polygon3\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag", [
        ("analyze", "--json"), ("developable", "--obj"), ("focal", "--obj")])
    def test_negative_origin_in_both_forms(self, rng, tmp_path, command, out_flag):
        """``--origin -1,0,0`` reads as ``--origin=-1,0,0``, by the plain reader
        and by argparse alike."""
        G = random_equal_area(12, rng)
        path = tmp_path / "p.json"
        shifted = silhouette_lift(G, [0.2, -0.1]).points - [1.0, 0.0, 0.0]
        write_document(PolygonDocument("polygon3", False, shifted), path)
        outputs = []
        for origin, flag in [(["--origin", "-1,0,0"], out_flag),
                             (["--origin", "-1,0,0"], out_flag[:-1]),  # abbreviated: argparse
                             (["--origin=-1,0,0"], out_flag)]:
            out = tmp_path / f"out{len(outputs)}"
            assert main([command, str(path), *origin, flag, str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("origin", ["0,0,zero", "0,0,nan", "0,inf,0", "1,2", "1,2,3,4"])
    def test_malformed_origin_exits_1(self, rng, tmp_path, capsys, origin):
        path = tmp_path / "p.json"
        write_document(PolygonDocument("polygon3", False, rng.normal(size=(8, 3))), path)
        assert main(["analyze", str(path), "--origin", origin]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evpoly: --origin")

    @pytest.mark.parametrize("fields, message", [
        ('"kind": "framed3", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], '
         '"directions": [[0, 0, 1], [0, 0, 1], [NaN, 0, 1]]', "non-finite direction coordinate"),
        ('"kind": "polygon3", "closed": "false", "vertices": [[0, 0, 1], [1, 0, 1], [1, 1, 1]]',
         "closed must be true or false, got 'false'"),
        ('"kind": "polygon3", "vertices": [[1, 0, 1], [0, 1]]',
         "vertices must be a list of numeric coordinate rows of equal length"),
        ('"kind": "polygon3", "vertices": [[1%s, 0, 1], [1, 0, 1], [1, 1, 1]]' % ("0" * 400),
         "vertices: a coordinate is too large for a float"),
        ('"kind": "polygon2", "vertices": [[0, 0], [1, 0], [1, 1]]',
         "cannot frame a polygon2 document"),
    ], ids=["nan-direction", "closed-string", "ragged-vertices", "huge-integer", "polygon2"])
    def test_malformed_document_exits_1(self, tmp_path, capsys, fields, message):
        path = tmp_path / "bad.json"
        path.write_text("{%s}" % fields)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 1
        assert capsys.readouterr().err == f"evpoly: {message}\n"

    def test_non_utf8_document_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "polygon3", "metadata": {"note": "\u00e9"}}'.encode("latin-1"))
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evpoly: ") and "not UTF-8" in err and err.count("\n") == 1

    def test_other_os_errors_exit_1(self, spiral_doc, monkeypatch, capsys):
        # a path through a regular file raises NotADirectoryError
        assert main(["analyze", spiral_doc + "/x.json"]) == 1
        assert main(["analyze", spiral_doc, "--json", spiral_doc + "/r.json"]) == 1

        # refused where the one reader, core.read_text, opens the file
        refuse_opening(monkeypatch, spiral_doc)
        assert main(["analyze", spiral_doc]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and all(x.startswith("evpoly: ") for x in lines)
        assert "Permission denied" in lines[2]

    @pytest.mark.parametrize("case", ["missing", "directory", "output-under-a-file",
                                      "output-directory", "read-permission",
                                      "write-permission", "non-utf8"])
    def test_io_errors_keep_their_exit_code_and_message(self, spiral_doc, tmp_path,
                                                        monkeypatch, capsys, case):
        missing, under, bad = str(tmp_path / "none.json"), spiral_doc + "/r.json", tmp_path / "b"
        out = str(tmp_path / "out.json")
        bad.write_bytes(b'{"kind": "polygon3",\r\n "metadata": {"note": "\xe9"}}')
        argv, message = {
            "missing": (["analyze", missing],
                        f"[Errno 2] No such file or directory: {missing!r}"),
            "directory": (["analyze", str(tmp_path)],
                          f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
            "output-under-a-file": (["analyze", spiral_doc, "--json", under],
                                    f"[Errno 20] Not a directory: {under!r}"),
            "output-directory": (["analyze", spiral_doc, "--json", str(tmp_path)],
                                 f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
            "read-permission": (["analyze", spiral_doc],
                                f"[Errno 13] Permission denied: {spiral_doc!r}"),
            "write-permission": (["analyze", spiral_doc, "--json", out],
                                 f"[Errno 13] Permission denied: {out!r}"),
            "non-utf8": (["analyze", str(bad), "--origin", "0,0,0"],
                         f"{bad}: not UTF-8 text (byte 45)"),
        }[case]
        if case.endswith("permission"):  # a root user passes every permission check
            refuse_opening(monkeypatch, spiral_doc if case == "read-permission" else out)
        before = open_fds()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"evpoly: {message}\n"
        assert open_fds() == before

    def test_short_writes_still_write_the_whole_report(self, spiral_doc, tmp_path, monkeypatch):
        whole, short = tmp_path / "whole.json", tmp_path / "short.json"
        assert main(["analyze", spiral_doc, "--json", str(whole)]) == 0
        sizes = short_writes(monkeypatch)
        assert main(["analyze", spiral_doc, "--json", str(short)]) == 0
        assert short.read_bytes() == whole.read_bytes()
        assert sum(sizes) == len(whole.read_bytes()) and max(sizes) == 7

    def test_skip_notice_suggests_resample_for_framed_input(self, rng, tmp_path, capsys):
        path = write_framed(random_generic_framed(rng, 15), tmp_path / "generic.json")
        assert main(["analyze", path]) == 0
        err = capsys.readouterr().err
        assert "above EQUAL_VOLUME_TOL = 1e-08; Frenet data skipped" in err
        assert "resample this framed3 document first" in err

    def test_skip_notice_names_the_origin_for_a_bare_polygon(self, rng, tmp_path, capsys):
        path = tmp_path / "ev.json"
        write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 12)), path)
        assert main(["analyze", str(path), "--origin", "0.1,0,0"]) == 0
        err = capsys.readouterr().err
        assert "above EQUAL_VOLUME_TOL = 1e-08; Frenet data skipped" in err
        assert "the polygon is not equal-volume about --origin 0.1,0,0" in err
        assert "resample" not in err

    @pytest.mark.parametrize("command, out_flag", [
        ("analyze", "--json"), ("developable", "--obj"), ("focal", "--obj")])
    def test_negative_origin_after_a_prefix(self, rng, tmp_path, capsys, command, out_flag):
        """``--orig -1,0,0`` reads as ``--origin=-1,0,0``, as argparse reads ``--orig``."""
        path = tmp_path / "p.json"
        shifted = silhouette_lift(random_equal_area(12, rng), [0.2, -0.1]).points - [1, 0, 0]
        write_document(PolygonDocument("polygon3", False, shifted), path)
        outputs = []
        for origin in (["--origin=-1,0,0"], ["--orig", "-1,0,0"], ["--orig=-1,0,0"],
                       ["--origin", "-1,0,0"]):
            out = tmp_path / f"out{len(outputs)}"
            assert main([command, str(path), *origin, out_flag, str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3
        if command == "developable":  # --o names --origin and --obj alike
            assert main([command, str(path), "--o", "-1,0,0", "--obj", str(out)]) == 1
            assert "ambiguous option: --o could match --origin, --obj" in capsys.readouterr().err

    def test_report_keys_and_health_scalars(self, spiral_doc, capsys):
        # an open cone silhouette: no holonomy, and an apex
        assert main(["analyze", spiral_doc]) == 0
        report = strict_json(capsys.readouterr().out)
        assert set(report) == {
            "n_vertices", "closed", "volume_c", "volume_spread", "sigma",
            "rho1", "rho2", "tau", "mu",
            "focal", "focal_sigma_spread", "focal_mu_spread", "classification", "apex"}
        arrays = {k for k, v in report.items() if isinstance(v, (list, dict))}
        assert arrays == {"sigma", "rho1", "rho2", "tau", "mu", "apex"}
        assert len(report["apex"]) == 3

    def test_planar_cone_reports_its_apex(self, tmp_path, capsys):
        # an arc in z = 1 framed about the origin: the osculating surface is
        # the cone over the arc, so the planar polygon's report keeps the apex
        t = np.linspace(0.2, 1.6, 30)
        arc = np.column_stack([2 * np.cos(t), np.sin(t), np.ones_like(t)])
        path = tmp_path / "arc.json"
        write_document(PolygonDocument.from_polygon(Polygon3.from_points(arc)), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["classification"] == "planar"
        assert np.abs(report["apex"]).max() < 1e-12

    @pytest.mark.parametrize("command, out_flag", [("analyze", "--json"), ("focal", "--obj")])
    def test_two_vertex_polygon_exits_2(self, tmp_path, capsys, command, out_flag):
        f = FramedPolygon.build([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]] * 2)
        path = write_framed(f, tmp_path / "two.json")
        assert main([command, path, out_flag, str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "evpoly: need at least 3 vertices\n"

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_short_open_polygon_skips_the_frenet_data(self, rng, tmp_path, capsys, n):
        path = tmp_path / "short.json"
        write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, n)), path)
        assert main(["analyze", str(path), "--origin", "0,0,0"]) == 0
        captured = capsys.readouterr()
        report = strict_json(captured.out)
        frenet_keys = {"rho1", "rho2", "tau", "mu", "focal"}
        assert report["n_vertices"] == n
        if n < 5:
            assert captured.err == ("evpoly: need at least 5 vertices for open Frenet data; "
                                    "Frenet data skipped\n")
            assert not frenet_keys & set(report)
        else:
            assert captured.err == "" and frenet_keys <= set(report)

    def test_short_polygon_whose_volumes_vary_gets_the_volume_notice(self, rng, tmp_path, capsys):
        path = tmp_path / "short.json"
        write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 4)), path)
        assert main(["analyze", str(path), "--origin", "0.1,0,0"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "above EQUAL_VOLUME_TOL = 1e-08; Frenet data skipped" in err

    def test_json_output_file(self, spiral_doc, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", spiral_doc, "--json", str(out)]) == 0
        report = strict_json(out)
        assert report["volume_spread"] < 1e-9
        assert "tau" in report


class TestResample:
    def test_idempotent_output(self, spiral_doc, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["resample", spiral_doc, "--out", str(out)]) == 0
        src = read_document(spiral_doc)
        dst = read_document(out)
        assert np.allclose(src.vertices, dst.vertices, atol=1e-12)
        assert strict_json(out)["metadata"]["volume_spread"] <= 1e-9

    def test_short_input_exits(self, rng, tmp_path):
        pts = rng.normal(size=(3, 3))
        f = FramedPolygon.build(pts, rng.normal(size=(3, 3)))
        path = write_framed(f, tmp_path / "short.json")
        assert main(["resample", path, "--out", str(tmp_path / "o.json")]) == 2

    def test_left_over_input_is_truncated_with_a_warning(self, tmp_path, capsys):
        # a last side half as long as the one before it, lifted off its line
        p = random_equal_volume_polygon(np.random.default_rng(2), 40).points
        p = np.vstack([p, p[-1] - 0.5 * (p[-1] - p[-2]) + [0.0, 0.0, 0.01]])
        path = write_framed(FramedPolygon.silhouette(p), tmp_path / "s.json")
        out = tmp_path / "out.json"
        assert main(["resample", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ("evpoly: warning: input polyline left over, "
                                           "output truncated\n")
        assert strict_json(out)["metadata"]["truncated"] is True


class TestPlength:
    def test_spiral_auto_seed_runs(self, tmp_path, capsys):
        pts = sample_curve(ExampleSpiral(), 0.0, 2 * np.pi, 60,
                           GridScheme.HALF_OPEN_STEP)
        path = tmp_path / "spiral2.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["plength", str(path), "--auto-seed"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert "pl1" in report and "pl2" in report

    def test_seeds_come_from_the_polygon_with_or_without_auto_seed(self, tmp_path, capsys):
        pts = sample_curve(Ellipse(2.0, 1.0), 0.2, 1.6, 100, GridScheme.INCLUDE_BOTH_ENDS)
        path = tmp_path / "arc.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["plength", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["plength", str(path), "--auto-seed"]) == 0
        assert capsys.readouterr().out == plain
        assert strict_json(plain)["normalization"]["label"] == "unit-seed"

    @pytest.mark.parametrize("flag", ["--a1", "--a2", "--c"])
    def test_user_seed_flags_are_gone(self, tmp_path, capsys, flag):
        path = tmp_path / "sq.csv"
        np.savetxt(path, [[1, 1], [-1, 1], [-1, -1], [1, -1]], delimiter=",")
        report = tmp_path / "r.json"
        assert main(["plength", str(path), "--report", str(report), flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not report.exists()

    def test_closed_polygon_exits_2(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        square = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
        write_document(PolygonDocument("polygon2", True, square), path)
        assert main(["plength", str(path)]) == 2
        assert capsys.readouterr().err == (
            "evpoly: representative lift is defined for open polygons\n")

    def test_concave_polygon_exits_2(self, tmp_path, capsys):
        pts = np.array([[0, 0], [1, 0], [2, 1], [1.2, 1.1], [0.2, 2]], float)
        path = tmp_path / "cc.csv"
        np.savetxt(path, pts, delimiter=",")
        assert main(["plength", str(path)]) == 2
        assert capsys.readouterr().err == (
            "evpoly: vertex 3: b = -6.200e-01 <= 0, polygon has an inflection "
            "(the positivity hypothesis b(i) > 0 fails)\n")

    @pytest.mark.parametrize("name, text, message", [
        ("p3.json", '{"kind": "polygon3", "vertices": [[0, 0, 1], [1, 0, 1], [1, 1, 1]]}',
         "plength expects a planar (polygon2) document"),
        ("nan.csv", "0,0\n1,nan\n2,1\n", "non-finite vertex coordinate"),
    ], ids=["polygon3", "nan-csv"])
    def test_refused_input_exits_1(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["plength", str(path)]) == 1
        assert capsys.readouterr().err == f"evpoly: {message}\n"


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
    def test_extent_flag_is_gone(self, spiral_doc, tmp_path, capsys, command):
        obj = tmp_path / "out.obj"
        assert main([command, spiral_doc, "--obj", str(obj), "--extent", "1"]) == 1
        assert "unrecognized arguments: --extent 1" in capsys.readouterr().err
        assert not obj.exists()

    def test_focal_skips_parallel_sides(self, tmp_path, capsys):
        # prism frame: every support line pair is parallel, all O at infinity
        t = np.linspace(0, 3, 10)
        pts = np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1)
        # equal-volume needs an equal-area shadow; use a circle arc scaled
        d = np.tile([0.0, 0.0, 1.0], (10, 1))
        f = FramedPolygon.build(pts, d)
        path = write_framed(f, tmp_path / "prism.json")
        obj = tmp_path / "o.obj"
        # O is at infinity on every side, but Q is finite on sides 1-7, the
        # whole of its window, so each of them has a focal line along xi
        assert main(["focal", path, "--obj", str(obj)]) == 0
        assert capsys.readouterr().err == ""
        records = [ln.split()[0] for ln in obj.read_text().splitlines()]
        assert (records.count("l"), records.count("f")) == (7, 6)

    def test_focal_names_the_sides_without_a_line(self, tmp_path, capsys):
        # a side with turn 2 has mu = 0, so its Q joins its O at infinity
        path = write_framed(parabola_prism([1, 2, 3, 2, 1, 2, 3, 1, 2, 2]),
                            tmp_path / "parabola.json")
        obj = tmp_path / "o.obj"
        assert main(["focal", path, "--obj", str(obj)]) == 2
        assert capsys.readouterr().err == (
            "evpoly: warning: sides [2, 4, 6, 9, 10] have no focal line (support lines "
            "and normals both meet at infinity); the focal faces beside them were skipped\n")
        records = [ln.split()[0] for ln in obj.read_text().splitlines()]
        assert records.count("l") == 10 - 5


@pytest.fixture(params=[True, False], ids=["collecting", "paused-by-caller"])
def collector(request):
    """The cyclic collector on or off as the caller of main leaves it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


class TestCollectorPause:
    """main pauses the cyclic collector for one command, then restores the caller's state."""

    def test_state_restored_after_each_exit_code(self, collector, tmp_path, capsys):
        concave = tmp_path / "cc.csv"
        np.savetxt(concave, [[0, 0], [1, 0], [2, 1], [1.2, 1.1], [0.2, 2]], delimiter=",")
        for argv, code in ((["table1", "--sizes", "10"], 0), (["table1", "--sizes", "4"], 1),
                           (["plength", str(concave)], 2)):
            assert main(argv) == code
            assert gc.isenabled() is collector

    def test_state_restored_after_help(self, collector, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc.isenabled() is collector

    def test_state_restored_after_an_exception(self, collector, monkeypatch):
        seen = []

        def fail(sizes):
            seen.append(gc.isenabled())
            raise RuntimeError("escapes main")

        monkeypatch.setattr(cli, "table1_experiment", fail)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["table1", "--sizes", "10"])
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_no_collection_during_a_resample(self, tmp_path):
        # the 4e3-vertex jittered spiral of the benchmark's resample-export
        n, rng = 4000, np.random.default_rng(0)
        h = 2 * np.pi / n
        t = np.concatenate([[0.0, 4 * h, 8 * h],
                            8 * h + h * (np.arange(1, n - 2) + rng.uniform(-0.25, 0.25, n - 3))])
        f = FramedPolygon.silhouette(ExampleSpiralRepresentative()(t), closed=False)
        path = write_framed(f, tmp_path / "dense.json")
        runs = []

        def count(phase, info):
            if phase == "start":
                runs.append(info["generation"])

        gc.callbacks.append(count)
        try:
            assert main(["resample", path, "--out", str(tmp_path / "out.json")]) == 0
        finally:
            gc.callbacks.remove(count)
        assert runs == []

    @pytest.mark.parametrize("command", ["analyze", "resample", "developable", "focal",
                                         "plength", "table1"])
    def test_a_command_leaves_no_cyclic_garbage(self, command, spiral_doc, tmp_path):
        # the pause is safe only while reference counting frees all that a
        # command builds: a Darboux field holds its framed polygon, which
        # holds nothing back
        arc = tmp_path / "arc.csv"
        np.savetxt(arc, sample_curve(Ellipse(2.0, 1.0), 0.2, 1.6, 100,
                                     GridScheme.INCLUDE_BOTH_ENDS), delimiter=",")
        argv = {
            "analyze": ["analyze", spiral_doc, "--json", str(tmp_path / "r.json")],
            "resample": ["resample", spiral_doc, "--out", str(tmp_path / "o.json")],
            "developable": ["developable", spiral_doc, "--obj", str(tmp_path / "d.obj")],
            "focal": ["focal", spiral_doc, "--obj", str(tmp_path / "f.obj")],
            "plength": ["plength", str(arc), "--report", str(tmp_path / "p.json")],
            "table1": ["table1", "--sizes", "10,100", "--csv", str(tmp_path / "t.csv")],
        }[command]
        assert main(argv) == 0  # warm-up: imports and first-use caches
        before = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if before:
                gc.enable()


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


def extreme_command_line(case, rng, tmp_path) -> list:
    """A command line whose finite input has side or direction lengths beyond the float range."""
    if case == "polygon3-1e308":
        src = tmp_path / "big.json"
        src.write_text(json.dumps({"kind": "polygon3", "vertices": [
            [1e308, 0, 0], [-1e308, 0, 0], [1e308, 0, 1], [-1e308, 1, 0]]}))
        return ["analyze", str(src), "--origin", "0,0,0"]
    if case == "origin-1e200":
        src = tmp_path / "ev.json"
        write_document(PolygonDocument.from_polygon(random_equal_volume_polygon(rng, 20)), src)
        return ["analyze", str(src), "--origin", "1e200,0,0"]
    src = tmp_path / "arc.csv"
    pts = sample_curve(Ellipse(1.5, 0.9), 0.3, 1.7, 50, GridScheme.INCLUDE_BOTH_ENDS) * 1e200
    src.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    return ["plength", str(src)]


@pytest.mark.parametrize("case, what", [("polygon3-1e308", "coordinate 1.000e+308"),
                                        ("origin-1e200", "direction 1.000e+200"),
                                        ("plength-1e200", "coordinate 1.433e+200")])
def test_overflowing_lengths_are_refused_where_coordinates_enter(case, what, rng, tmp_path,
                                                                  capsys):
    argv = extreme_command_line(case, rng, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape as an exception
        assert main(argv) == 2
    assert capsys.readouterr().err == (f"evpoly: vertex 0: {what} exceeds COORD_MAX = "
                                       "3.352e+153, beyond which a length can overflow\n")


@pytest.mark.parametrize("exponent", [400, 450, 500])
def test_frenet_overflow_below_coord_max_is_named(exponent, rng, tmp_path, capsys):
    """An equal-volume polygon scaled by 2^exponent (exactly, below COORD_MAX)
    passes the frame and volume gates, but the Frenet face solve's triple
    products overflow: analyze names that, with no numpy warning."""
    src = tmp_path / "big.json"
    points = random_equal_volume_polygon(rng, 20).points * 2.0 ** exponent
    write_document(PolygonDocument("polygon3", False, points), src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape as an exception
        assert main(["analyze", str(src), "--origin", "0,0,0"]) == 2
    assert capsys.readouterr() == ("", "evpoly: side 1: the Frenet face solve overflows float64 "
                                       "at this polygon's scale\n")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type int64",
     "evpoly: out of memory: Unable to allocate 72.8 TiB for an array with shape "
     "(10000000000000,) and data type int64\n"),
    ("", "evpoly: out of memory\n"),
])
def test_memory_error_exits_1_with_one_line(message, line, monkeypatch, capsys):
    def too_large(sizes):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "table1_experiment", too_large)  # so the test allocates nothing
    assert main(["table1", "--sizes", "10000000000000"]) == 1
    assert capsys.readouterr() == ("", line)


def test_planarity_from_singular_values_alone(rng):
    # analyze takes the singular values without U and V; both LAPACK paths
    # give them to about eps * sv[0], so away from the 1e-10 band around
    # the threshold they classify every polygon alike
    def full_svd(pts):
        sv = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)[1]
        return bool(sv[-1] <= 1e-10 * sv[0])

    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    for n in (12, 46, 80, 1000):
        for scale in (1e-12, 1e-3, 1.0, 1e3):
            spatial = rng.normal(size=(n, 3)) * scale
            flat = spatial * [1.0, 1.0, 0.0]
            tilted = flat @ rot.T
            lifted = tilted + 1e-6 * scale * rng.uniform(-1, 1, (n, 1)) * rot[:, 2]
            for pts, planar in ((spatial, False), (flat, True), (tilted, True), (lifted, False)):
                assert _planar(pts) is planar
                assert full_svd(pts) is planar


def svd_alone(pts) -> bool:
    """``_planar`` without its screen: the singular values decide every polygon."""
    sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return bool(sv[-1] <= 1e-10 * sv[0])


def with_ratio(rng, n, ratio, scale, offset):
    """n vertices whose centred singular values are (1, 0.5, ratio) * scale, about offset."""
    u = np.linalg.qr(rng.normal(size=(n, 3)) - rng.normal(size=(n, 3)).mean(axis=0))[0]
    u -= u.mean(axis=0)  # centred columns, still orthogonal to rounding
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return (u * [1.0, 0.5, ratio]) @ rot.T * scale + offset


def svd_runs(monkeypatch) -> list:
    runs = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        runs.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return runs


# sigma3/sigma1 at or near the SVD's threshold; 1e-10 (1 +- 1e-6) is the
# SVD's own resolution there, where either answer may come back
NEAR_THRESHOLD = (0.0, 1e-9, 1e-10 * (1 + 1e-6), 1e-10, 1e-10 * (1 - 1e-6), 1e-11)


@pytest.mark.parametrize("ratio", NEAR_THRESHOLD)
def test_planar_screen_leaves_the_threshold_band_to_the_svd(rng, monkeypatch, ratio):
    runs = svd_runs(monkeypatch)
    cases = 0
    for n in (12, 46, 80, 1000):
        for scale in (1e-30, 1e-3, 1.0, 1e3, 1e30):
            for offset in (0.0, 10.0 * scale):
                pts = with_ratio(rng, n, ratio, scale, offset)
                # the screen can only prove sigma3/sigma1 > 1e-4, so the SVD decides
                assert _planar(pts) is svd_alone(pts)
                cases += 1
    assert len(runs) == 2 * cases  # _planar's and svd_alone's


@pytest.mark.parametrize("ratio", [1e-4, 1e-3, 0.1, 1.0])
def test_planar_screen_proves_spatial_polygons(rng, monkeypatch, ratio):
    runs = svd_runs(monkeypatch)
    for n in (12, 46, 80, 1000):
        # tr G = 1.25 scale^2: the screen runs inside (1e-100, 1e100)
        for scale in (1e-60, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e60):
            pts = with_ratio(rng, n, ratio, scale, 10.0 * scale)
            before = len(runs)
            assert _planar(pts) is svd_alone(pts) is False
            # det G / (tr G)^3 = 0.25 ratio^2 / (1.25 + ratio^2)^3 exceeds 1e-8
            # from ratio = 1e-3 on; at 1e-4 the SVD decides
            screened = ratio >= 1e-3 and 1e-100 < 1.25 * scale**2 < 1e100
            assert len(runs) - before == 1 + (not screened)


@given(pts=arrays(np.float64, st.tuples(st.integers(3, 40), st.just(3)),
                  elements=st.floats(-1e6, 1e6)))
@settings(max_examples=300, deadline=None)
def test_planar_screen_classifies_like_the_svd_alone(pts):
    assert _planar(pts) is svd_alone(pts)


# ---------------------------------------------------------------- the Darboux scale

# Generic frames whose Darboux scale grows by about 2^0.16 per side: past
# 2^511 from N = 3000 on, where |xi| squared overflows, and, walked the
# other way, down towards 2^-1022
SCALE_FRAMES = [(seed, n) for n in (3000, 4000, 6000) for seed in (1, 5, 9)]


@pytest.mark.parametrize("seed, n", SCALE_FRAMES)
def test_frames_past_the_squared_range_give_whole_outputs(seed, n, tmp_path):
    f = random_generic_framed(np.random.default_rng(seed), n)
    for frame in (f, reversed_frame(f)):
        path = write_framed(frame, tmp_path / "f.json")
        report, obj = tmp_path / "a.json", tmp_path / "d.obj"
        assert main(["analyze", path, "--json", str(report)]) == 0  # RuntimeWarnings are errors
        assert strict_json(report)["n_vertices"] == n
        assert main(["developable", path, "--obj", str(obj)]) == 0
        assert zero_width_quads(obj) == (n - 1, 0)


def first_scale_below(f, tiny) -> int:
    """The first side whose Darboux scale falls below ``tiny``, from a solve of
    side = p d(k) + q d(k+1) in each face's Gram matrix of the unit directions."""
    e, d = f.polygon.sides().values, f.unit_directions.values
    d0, d1 = d[:-1], d[1:]
    g, b0, b1 = (np.einsum("ij,ij->i", u, v) for u, v in ((d0, d1), (d0, e), (d1, e)))
    scales = np.abs(np.cumprod((g * b0 - b1) / (b0 - g * b1)))  # -q/p, as det cancels
    assert (scales < tiny).any()
    return int(np.argmax(scales < tiny))


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_scales_below_the_normal_range_are_refused_by_side(seed, tmp_path, capsys):
    f = reversed_frame(random_generic_framed(np.random.default_rng(seed), 10_000))
    side = first_scale_below(f, 2.0 ** -1022)
    path = write_framed(f, tmp_path / "f.json")
    for command, flag in [("analyze", "--json"), ("developable", "--obj"), ("resample", "--out")]:
        out = tmp_path / "out"
        assert main([command, path, flag, str(out)]) == 2
        assert capsys.readouterr().err == (
            f"evpoly: side {side}: the Darboux recursion underflows (scale below 2^-1022)\n")
        assert not out.exists()


def flat_frame(rng):
    """A frame in the plane z = 0 with directions in that plane: every Darboux
    volume is 0, so the volumes' relative spread is infinite."""
    pts = np.cumsum(rng.uniform(0.5, 1.5, size=(12, 3)) * [1, 1, 0], axis=0)
    return FramedPolygon.build(pts, rng.normal(size=(12, 3)) * [1, 1, 0])


@pytest.mark.parametrize("frame, key", [(flat_frame, "volume_spread")], ids=["volumes"])
def test_a_report_value_that_is_not_finite_is_refused_by_name(frame, key, rng, tmp_path, capsys):
    path = write_framed(frame(rng), tmp_path / "f.json")
    for out in ([], ["--json", str(tmp_path / "a.json")]):
        assert main(["analyze", path, *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"evpoly: {key}: not finite, and JSON has no infinity or NaN")
    assert not (tmp_path / "a.json").exists()


def test_a_spread_with_no_finite_value_is_reported_as_null(tmp_path, capsys):
    """mu is 0 on 8 of the 10 sides, so its spread about the median |mu| of 0 has no
    finite value: the report gives null, which is not within FOCAL_CLASSIFY_TOL."""
    path = write_framed(parabola_prism([2, 2, 2, 3, 2, 2, 1, 2, 2, 2]), tmp_path / "f.json")
    assert main(["analyze", path, "--json", str(tmp_path / "a.json")]) == 0
    report = json.loads((tmp_path / "a.json").read_text())
    assert (report["focal"], report["focal_sigma_spread"], report["focal_mu_spread"]) == (
        "general", 0.0, None)
    assert main(["analyze", path]) == 0
    assert json.loads(capsys.readouterr().out)["focal_mu_spread"] is None
