"""Command-line toolkit: analyze, resample, plength, focal, developable, table1.

Exit codes: 0 success, 1 input or usage error, 2 numeric degeneracy.
Human diagnostics go to stderr; stdout and output files carry machine
readable data only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .core import GeometryError
from .darboux import (
    FramedPolygon,
    classify_osculating,
    osculating_developable,
    parallel_darboux,
)
from .documents import DocumentError, PolygonDocument, read_document, write_document
from .equal_volume import (
    EQUAL_VOLUME_TOL,
    darboux_volumes,
    is_equal_volume,
    resample_equal_volume,
)
from .invariants import classify_focal, focal_data, focal_set_mesh, frenet
from .projective import (
    InflectionError,
    LiftNormalization,
    PlanarProjectivePolygon,
    default_normalization,
    lift_representative,
    projective_lengths,
    table1_experiment,
)

__all__ = ["main"]


def _fail(msg: str, code: int) -> int:
    print(f"evpoly: {msg}", file=sys.stderr)
    return code


def _emit(text: str, path) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_origin(text: str) -> np.ndarray:
    try:
        origin = np.array([float(x) for x in text.split(",")])
    except ValueError:
        origin = np.empty(0)
    if origin.shape != (3,) or not np.all(np.isfinite(origin)):
        raise DocumentError(f"--origin expects three finite numbers x,y,z, got {text!r}")
    return origin


def _load_framed(args) -> tuple:
    """Framed polygon from the input document plus the origin used, if any."""
    doc = read_document(args.input)
    if doc.kind == "framed3":
        return doc.to_framed(), None
    if doc.kind == "polygon3":
        if args.origin is None:
            raise DocumentError(
                "a bare space polygon needs --origin x,y,z to define its frame "
                "(lines through the origin), or provide a framed3 document")
        o = _parse_origin(args.origin)
        return FramedPolygon.silhouette(doc.vertices, o, closed=doc.closed), o
    raise DocumentError(f"cannot frame a {doc.kind} document")


def _seq_payload(seq) -> dict:
    return {"base": int(seq.base), "grid": seq.grid.value,
            "values": np.asarray(seq.values).tolist()}


def cmd_analyze(args) -> int:
    framed, origin = _load_framed(args)
    df = parallel_darboux(framed)
    rep = darboux_volumes(framed, df)
    report = {
        "n_vertices": len(framed.polygon),
        "closed": framed.closed,
        "volume_c": rep.c_hat,
        "volume_spread": rep.spread,
        "sigma": _seq_payload(df.sigma),
    }
    if df.holonomy is not None:
        report["holonomy"] = df.holonomy

    osc = classify_osculating(df, f=framed)
    classification = osc.kind.value

    # planar polygons are their own degenerate case
    pts = framed.polygon.points
    q = pts - pts.mean(axis=0)
    sv = np.linalg.svd(q, full_matrices=False)[1]
    if sv[-1] <= 1e-10 * max(sv[0], 1.0):
        classification = "planar"

    if is_equal_volume(rep):
        fr = frenet(framed, df)
        fd = focal_data(framed, df, fr)
        fc = classify_focal(df, fd)
        report.update({
            "rho1": _seq_payload(fr.rho1),
            "rho2": _seq_payload(fr.rho2),
            "tau": _seq_payload(fr.tau),
            "mu": _seq_payload(fd.mu),
            "compatibility_residual": fr.compatibility_residual(df.sigma).tolist(),
            "tau_agreement_gap": fr.tau_gap.values.tolist(),
            "focal": fc.kind.value,
            "focal_sigma_spread": fc.sigma_spread,
            "focal_mu_spread": fc.mu_spread,
        })
        if classification == "general" and fc.kind.value == "single_line":
            classification = "single_line"
    else:
        # resample takes framed3 documents only; a bare polygon is framed by its origin
        remedy = ("resample this framed3 document first" if origin is None else
                  f"the polygon is not equal-volume about --origin {args.origin}")
        print(f"evpoly: volumes vary by {rep.spread:.3e} relative, above "
              f"EQUAL_VOLUME_TOL = {EQUAL_VOLUME_TOL:.0e}; Frenet data skipped "
              f"({remedy})", file=sys.stderr)
    report["classification"] = classification
    if osc.apex is not None:
        report["apex"] = np.asarray(osc.apex).tolist()

    _emit(json.dumps(report) + "\n", args.json)
    return 0


def cmd_resample(args) -> int:
    doc = read_document(args.input)
    framed = doc.to_framed()
    df = parallel_darboux(framed)
    result = resample_equal_volume(framed, df)
    df_out = parallel_darboux(result.framed)
    rep = darboux_volumes(result.framed, df_out)
    meta = {"volume_c": rep.c_hat, "volume_spread": rep.spread,
            "truncated": result.truncated}
    if result.truncated:
        print("evpoly: warning: input polyline left over, output truncated",
              file=sys.stderr)
    out = PolygonDocument.from_framed(result.framed, metadata=meta)
    write_document(out, args.out)
    return 0


def cmd_plength(args) -> int:
    doc = read_document(args.input)
    if doc.kind != "polygon2":
        raise DocumentError("plength expects a planar (polygon2) document")
    poly = PlanarProjectivePolygon.from_vertices(doc.vertices, closed=doc.closed)
    if args.auto_seed or args.a1 is None:
        norm = default_normalization(poly)
    else:
        if args.a2 is None or args.c is None:
            raise DocumentError("--a1 requires --a2 and --c (or use --auto-seed)")
        norm = LiftNormalization(args.a1, args.a2, args.c, "user-seed")
    phi = lift_representative(poly, norm)
    rep = projective_lengths(phi)
    payload = {
        "pl1": rep.pl1,
        "pl2": rep.pl2,
        "summation_range": list(rep.summation_range),
        "per_side_terms1": _seq_payload(rep.per_side_terms1),
        "per_side_terms2": _seq_payload(rep.per_side_terms2),
        "normalization": {"a1": norm.a1, "a2": norm.a2, "c": norm.c,
                          "label": norm.label},
    }
    _emit(json.dumps(payload) + "\n", args.report)
    return 0


def cmd_developable(args) -> int:
    framed, _ = _load_framed(args)
    df = parallel_darboux(framed)
    mesh = osculating_developable(framed, df, extent=args.extent)
    mesh.write_obj(args.obj)
    return 0


def cmd_focal(args) -> int:
    framed, _ = _load_framed(args)
    df = parallel_darboux(framed)
    fr = frenet(framed, df)
    fd = focal_data(framed, df, fr)
    mesh = focal_set_mesh(fd, extent=args.extent)
    mesh.write_obj(args.obj)
    skipped = sorted(set(fd.at_infinity_O) | set(fd.at_infinity_Q))
    if skipped:
        print(f"evpoly: warning: sides {skipped} have support lines or normals "
              "meeting at infinity; their focal faces were skipped",
              file=sys.stderr)
        return 2
    return 0


def cmd_table1(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes:
        raise DocumentError("--sizes expects a comma-separated list of integers")
    if any(n < 6 for n in sizes):
        raise DocumentError("every N must be at least 6")
    rows = table1_experiment(sizes)
    lines = ["N,h,pl1,pl2"]
    lines += [f"{n},{h:.5f},{p1:.5f},{p2:.5f}" for n, h, p1, p2 in rows]
    _emit("\n".join(lines) + "\n", args.csv)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1) instead of exiting 2."""

    def error(self, message):
        raise DocumentError(f"{message} (see {self.prog} --help)")


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expects a finite positive number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="evpoly",
        description="Discrete affine invariants of polygons in 3-space")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="volumes, Frenet data and classification")
    pa.add_argument("input")
    pa.add_argument("--origin", help="x,y,z base point for a bare space polygon")
    pa.add_argument("--json", help="write the report to this path")
    pa.set_defaults(fn=cmd_analyze)

    pr = sub.add_parser("resample", help="equal-volume resampling of a framed polyline")
    pr.add_argument("input")
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_resample)

    pp = sub.add_parser("plength", help="discrete projective lengths of a planar polygon")
    pp.add_argument("input")
    pp.add_argument("--a1", type=_positive)
    pp.add_argument("--a2", type=_positive)
    pp.add_argument("--c", type=_positive)
    pp.add_argument("--auto-seed", action="store_true")
    pp.add_argument("--report", help="write the JSON report to this path")
    pp.set_defaults(fn=cmd_plength)

    pd = sub.add_parser("developable", help="export the osculating developable as OBJ")
    pd.add_argument("input")
    pd.add_argument("--origin")
    pd.add_argument("--obj", required=True)
    pd.add_argument("--extent", type=_positive)
    pd.set_defaults(fn=cmd_developable)

    pf = sub.add_parser("focal", help="export the affine focal set as OBJ")
    pf.add_argument("input")
    pf.add_argument("--origin")
    pf.add_argument("--obj", required=True)
    pf.add_argument("--extent", type=_positive)
    pf.set_defaults(fn=cmd_focal)

    pt = sub.add_parser("table1", help="projective-length convergence table")
    pt.add_argument("--sizes", default="10,100,1000")
    pt.add_argument("--csv", help="write the table to this path")
    pt.set_defaults(fn=cmd_table1)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (DocumentError, FileNotFoundError, IsADirectoryError) as exc:
        return _fail(str(exc), 1)
    except InflectionError as exc:
        return _fail(f"{exc} (the positivity hypothesis b(i) > 0 fails)", 2)
    except GeometryError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
