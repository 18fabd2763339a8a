"""Command-line toolkit: analyze, resample, plength, focal, developable, table1.

Exit codes: 0 success, 1 input or usage error, 2 numeric degeneracy.
Human diagnostics go to stderr; stdout and output files carry machine
readable data only.

``main`` runs each command with Python's cyclic garbage collector paused
(``gc.disable``) and turns it back on afterwards only if it was on
before.  The pause covers the whole process while the command runs,
other threads included.  It is safe because what a command builds
(document rows, report lists, mesh records) holds no reference cycles, so
reference counting frees all of it; the collector would only walk the
row lists that JSON reading and writing create.  A freed container also
lowers the collector's young-generation count again, so no collection is
pushed past the command.

Each command is declared once, in ``_COMMANDS``: its function, its help
text and its arguments in order.  A command line in the plain form that
every documented call uses (exact option strings, each at most once, the
right number of positionals, every required option given, and values
that do not start with ``-`` unless a digit or ``.`` follows, as in
``--origin -1,0,0``) is read from that table alone by ``_read_plain``.
``argparse`` is imported, and the parsers are built from the same table,
only for ``--help``, usage errors and other command-line forms, so every
help and usage text and every exit code is argparse's.  The command line
then goes to the full parser with ``--opt -1,0,0`` joined as
``--opt=-1,0,0`` (``--opt`` exact or, as argparse reads it, a unique
prefix) so that both readers read the same values.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
from types import SimpleNamespace

import numpy as np

from .core import GeometryError, row_mean, write_text
from .darboux import (
    FramedPolygon,
    classify_osculating,
    osculating_developable,
    parallel_darboux,
)
from .documents import DocumentError, PolygonDocument, json_text, read_document, write_document
from .equal_volume import NotEqualVolumeError, darboux_volumes, resample_equal_volume
from .invariants import ShortPolygonError, classify_focal, focal_data, focal_set_mesh, frenet
from .projective import (
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


def _planar(pts: np.ndarray) -> bool:
    """True when the centred vertices' smallest singular value is at most
    1e-10 of the largest, at any scale.

    A screen decides most polygons without the SVD.  With q the centred
    vertices and G = q^T q, whose eigenvalues are the squared singular
    values s1 >= s2 >= s3,

        s3^2 / s1^2 >= det G / (tr G)^3,

    since det G = s1^2 s2^2 s3^2 <= s1^4 s3^2 and tr G >= s1^2.  So
    det G > 1e-8 (tr G)^3 proves s3/s1 > 1e-4, far above the threshold.
    Each entry of G is a sum of n products, rounded to within about
    n eps tr G, which moves det G by about n eps (tr G)^3: far below the
    1e-8 margin for any n below 1e6.  The screen runs only while
    1e-100 < tr G < 1e100, where (tr G)^3 is a normal float and what a
    product loses to underflow is negligible against tr G, so neither
    overflow nor underflow can fake the certificate.  Otherwise, and on
    every planar or nearly planar polygon, the singular values decide.

    Only the singular values are computed.  With or without U and V,
    LAPACK gives them to about eps * sv[0], so the two paths can classify
    apart only within about 1e-6 relative of the threshold.
    """
    q = pts - row_mean(pts)
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = (q.T @ q).tolist()
    tr = g00 + g11 + g22
    if 1e-100 < tr < 1e100:
        det = (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
               + g02 * (g01 * g12 - g11 * g02))
        if det > 1e-8 * tr * tr * tr:
            return False
    sv = np.linalg.svd(q, compute_uv=False)
    return bool(sv[-1] <= 1e-10 * sv[0])


def _emit(text: str, path) -> None:
    """Write ``text`` to the file at ``path`` (``core.write_text``), or to stdout without one."""
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _parse_origin(text: str) -> np.ndarray:
    try:
        origin = [float(x) for x in text.split(",")]
    except ValueError:
        origin = []
    if len(origin) != 3 or not all(map(math.isfinite, origin)):
        raise DocumentError(f"--origin expects three finite numbers x,y,z, got {text!r}")
    return np.array(origin)


def _load_framed(args) -> tuple:
    """Framed polygon from the input document plus the origin used, if any."""
    doc = read_document(args.input)
    if doc.kind == "framed3":
        if args.origin is not None:
            raise DocumentError(
                "a framed3 document carries its own directions; --origin only "
                "frames a bare polygon3")
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
            "values": seq.values}


def cmd_analyze(args) -> int:
    framed, origin = _load_framed(args)
    df = parallel_darboux(framed)
    rep = darboux_volumes(df)
    report = {
        "n_vertices": len(framed.polygon),
        "closed": framed.closed,
        "volume_c": rep.c_hat,
        "volume_spread": rep.spread,
        "sigma": _seq_payload(df.sigma),
    }
    if df.holonomy is not None:
        report["holonomy"] = df.holonomy

    osc = classify_osculating(df)
    classification = osc.kind.value

    # planar polygons are their own degenerate case
    if _planar(framed.polygon.points):
        classification = "planar"

    try:
        fr = frenet(df)
    except NotEqualVolumeError as exc:
        # resample takes framed3 documents only; a bare polygon is framed by its origin
        remedy = ("resample this framed3 document first" if origin is None else
                  f"the polygon is not equal-volume about --origin {args.origin}")
        print(f"evpoly: volumes vary by {exc.spread:.3e} relative, above "
              f"EQUAL_VOLUME_TOL = {exc.threshold:.0e}; Frenet data skipped "
              f"({remedy})", file=sys.stderr)
    except ShortPolygonError as exc:
        print(f"evpoly: {exc}; Frenet data skipped", file=sys.stderr)
    else:
        fd = focal_data(df)
        fc = classify_focal(fd)
        report.update({
            "rho1": _seq_payload(fr.rho1),
            "rho2": _seq_payload(fr.rho2),
            "tau": _seq_payload(fr.tau),
            "mu": _seq_payload(fd.mu),
            "focal": fc.kind.value,
            "focal_sigma_spread": fc.sigma_spread,
            "focal_mu_spread": fc.mu_spread,
        })
        if classification == "general" and fc.kind.value == "single_line":
            classification = "single_line"
    report["classification"] = classification
    if osc.apex is not None:
        report["apex"] = np.asarray(osc.apex).tolist()

    _emit(json_text(report), args.json)
    return 0


def cmd_resample(args) -> int:
    doc = read_document(args.input)
    result = resample_equal_volume(parallel_darboux(doc.to_framed()))
    rep = darboux_volumes(parallel_darboux(result.framed))
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
    if doc.closed:  # the lift recursion has a closure obstruction on loops
        raise GeometryError("representative lift is defined for open polygons")
    poly = PlanarProjectivePolygon.from_vertices(doc.vertices)
    norm = default_normalization(poly)
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
    _emit(json_text(payload), args.report)
    return 0


def cmd_developable(args) -> int:
    framed, _ = _load_framed(args)
    mesh = osculating_developable(parallel_darboux(framed))
    mesh.write_obj(args.obj)
    return 0


def cmd_focal(args) -> int:
    framed, _ = _load_framed(args)
    fd = focal_data(parallel_darboux(framed))
    focal_set_mesh(fd).write_obj(args.obj)
    skipped = fd.Q.slots[fd.lineless()].tolist()
    if skipped:
        print(f"evpoly: warning: sides {skipped} have no focal line (support lines and "
              "normals both meet at infinity); the focal faces beside them were skipped",
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


# Each command once: its function, its help text and its arguments in order, each a name
# with the keywords ``argparse`` takes for it, of the kinds ``_grammar`` reads: a positional,
# a value option (``help``, ``default``, ``required``) or a ``store_true`` flag.
_COMMANDS = {
    "analyze": (cmd_analyze, "volumes, Frenet data and classification", [
        ("input", {}), ("--origin", {"help": "x,y,z base point for a bare space polygon"}),
        ("--json", {"help": "write the report to this path"})]),
    "resample": (cmd_resample, "equal-volume resampling of a framed polyline", [
        ("input", {}), ("--out", {"required": True})]),
    "plength": (cmd_plength, "discrete projective lengths of a planar polygon", [
        ("input", {}), ("--auto-seed", {"action": "store_true",
                                        "help": "seed the lift from the polygon (the default)"}),
        ("--report", {"help": "write the JSON report to this path"})]),
    "developable": (cmd_developable, "export the osculating developable as OBJ", [
        ("input", {}), ("--origin", {}), ("--obj", {"required": True})]),
    "focal": (cmd_focal, "export the affine focal set as OBJ", [
        ("input", {}), ("--origin", {}), ("--obj", {"required": True})]),
    "table1": (cmd_table1, "projective-length convergence table", [
        ("--sizes", {"default": "10,100,1000"}),
        ("--csv", {"help": "write the table to this path"})]),
}


def _grammar(command, fn, arguments) -> tuple:
    """(positional dests, option string -> (dest, takes a value), required dests, defaults)."""
    positionals, options, required, defaults = [], {}, set(), {"command": command, "fn": fn}
    for name, kw in arguments:
        dest, takes = name.lstrip("-").replace("-", "_"), "action" not in kw
        defaults[dest] = kw.get("default", None if takes else False)
        if name[0] != "-":
            positionals.append(dest)
        else:
            options[name] = dest, takes
            if kw.get("required"):
                required.add(dest)
    return positionals, options, required, defaults


_GRAMMARS = {name: _grammar(name, fn, arguments) for name, (fn, _, arguments) in _COMMANDS.items()}


def _takes_value(options, token: str) -> bool:
    """Whether ``token`` names a value option, exactly or by a unique prefix as argparse does."""
    names = [name for name in options if name.startswith(token)] if token[:2] == "--" else []
    return options[token][1] if token in options else len(names) == 1 and options[names[0]][1]


def _is_value(token: str) -> bool:
    """An option's value: no leading ``-``, or ``-`` and a digit or ``.``, as in ``-1,0,0``."""
    return token[:1] != "-" or token[1:2].isdecimal() or token[1:2] == "."


@functools.cache
def build_parser():
    """The full parser with each command's sub-parser, built once from ``_COMMANDS``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports usage errors as input errors (exit 1) instead of exiting 2."""

        def error(self, message):
            raise DocumentError(f"{message} (see {self.prog} --help)")

    ap = _Parser(prog="evpoly", description="Discrete affine invariants of polygons in 3-space")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, arguments) in _COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        for name, kw in arguments:
            parser.add_argument(name, **kw)
        parser.set_defaults(fn=fn)
    return ap


def _read_plain(grammar, tokens) -> SimpleNamespace | None:
    """The arguments of a command line in the plain form, else None: each token
    that starts with ``-`` is an option's value (``_is_value``) or one of the
    command's exact option strings (so no abbreviation, ``=``, ``-h`` or ``--``),
    given at most once, and every positional and required option is there."""
    positionals, options, required, defaults = grammar
    args, values, tokens = {}, [], iter(tokens)
    for token in tokens:
        dest, takes = options.get(token, (None, False))
        if token[:1] != "-":
            values.append(token)
        elif dest is None or dest in args:
            return None
        else:
            args[dest] = next(tokens, "-") if takes else True  # no value fails as "-" does
            if takes and not _is_value(args[dest]):
                return None
    if len(values) != len(positionals) or not required <= args.keys():
        return None
    return SimpleNamespace(**defaults | args | dict(zip(positionals, values)))


def _parse(argv):
    """The arguments of one command: ``_read_plain``'s, else argparse's, with
    each value option and a value that starts with ``-`` joined as
    ``--opt=value`` before any ``--``, as ``_read_plain`` reads them."""
    argv = sys.argv[1:] if argv is None else argv
    grammar = _GRAMMARS.get(argv[0]) if argv else None
    args = None if grammar is None else _read_plain(grammar, argv[1:])
    if args is not None:
        return args
    if grammar is None:
        return build_parser().parse_args(argv)
    tokens = []
    for token in argv[1:]:
        if (tokens and token[:1] == "-" and _is_value(token) and "--" not in tokens
                and _takes_value(grammar[1], tokens[-1])):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return build_parser().parse_args(argv[:1] + tokens)


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = _parse(argv)
        return args.fn(args)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc), 1)
    except MemoryError as exc:  # an input too large to hold, such as a huge table1 N
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", 1)
    except GeometryError as exc:
        return _fail(str(exc), 2)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
