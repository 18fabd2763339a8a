"""The benchmark's workloads: inputs made from a seed, the op list, and the output oracle.

Each op is one call of ``evpoly.cli.main(argv)``.  Its check reads the
files the op wrote, compares them with the outputs recorded at the seed
commit, and returns the values the metrics need; on a mismatch it raises
``Mismatch``.  ``Op.known`` names the way an op already failed at the seed
(a known defect, see README.md): the op is still run and still lowers
``ok_frac``, but repeating that failure is not an oracle mismatch, and an
op that starts to succeed must pass its check.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from evpoly import constructions as C
from evpoly.darboux import FramedPolygon
from evpoly.documents import PolygonDocument, write_document
from evpoly.projective import SPIRAL_SMOOTH_LENGTH
from fixtures import random_cone_fixture, random_equal_volume_polygon, random_generic_framed

# analyze's default --tol: above it analyze skips the Frenet data and
# focal refuses to run.
VOLUME_GATE = 1e-8

# Table 1 rows printed by `evpoly table1` at the seed (pl1, pl2).
TABLE1_ROWS = {10: ("4.26627", "3.55522"),
               100: ("6.87572", "6.80410"),
               1000: ("7.13407", "7.12691")}
TABLE1_SIZES = (10, 100, 1000, 10_000, 100_000)
# A size without a recorded row must land about as close to the smooth
# length as N = 1000 does (relative error 0.0040).
TABLE1_CONVERGED = 0.005
# A conic has projective length 0; at N = 100 the seed reads |pl| <= 0.004.
CONIC_PL_TOL = 0.02


class Mismatch(Exception):
    """An op's output differs from the reference."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key}: {detail}")
        self.key = key


@dataclass
class Op:
    name: str
    argv: list
    vertices: object  # input vertex count, or the path of the document read
    check: Callable[[], dict]
    outputs: tuple = ()
    known: str | None = None  # "exit <code>" or "check:<key>", as seen at the seed


def _scaled(n: int, scale: float, minimum: int = 50) -> int:
    return max(minimum, int(round(n * scale)))


def _framed_doc(path: Path, f: FramedPolygon) -> None:
    write_document(PolygonDocument.from_framed(f), path)


def _require(ok: bool, key: str, detail: str) -> None:
    if not ok:
        raise Mismatch(key, detail)


def _check_analyze(out: Path, n: int, classification: str, apex=None,
                   apex_tol: float = 0.0, focal: str | None = None):
    def check() -> dict:
        rep = json.loads(out.read_text())
        _require(rep["n_vertices"] == n, "n_vertices", f"{rep['n_vertices']} != {n}")
        _require(rep["classification"] == classification, "classification",
                 f"{rep['classification']} != {classification}")
        if apex is not None:
            dist = float(np.linalg.norm(np.asarray(rep.get("apex", np.inf)) - apex))
            _require(dist <= apex_tol, "apex", f"off by {dist:.3e} > {apex_tol:.1e}")
        if focal is not None:
            _require(rep.get("focal") == focal, "focal", f"{rep.get('focal')} != {focal}")
        return {}
    return check


def analyze_large(seed: int, d: Path, scale: float = 1.0) -> list:
    """Few large framed documents; per-vertex loops in darboux/invariants dominate."""
    n = _scaled(10_000, scale)
    rng = np.random.default_rng(seed)
    phi = C.sample_curve(C.ExampleSpiralRepresentative(), 0.0, 2 * np.pi, n)
    spiral = FramedPolygon.silhouette(phi.points)
    cone, apex = random_cone_fixture(rng, n)
    generic = random_generic_framed(rng, n)
    ops = []
    for name, f, check in (
            # lines through the origin frame the spiral: a cone at the origin
            ("spiral", spiral, dict(classification="cone", apex=np.zeros(3), focal="general")),
            ("cone", cone, dict(classification="cone", apex=apex)),
            ("generic", generic, dict(classification="general"))):
        src, out = d / f"{name}.json", d / f"{name}.report.json"
        _framed_doc(src, f)
        tol = 1e-8 * max(1.0, f.polygon.diameter())
        ops.append(Op(f"analyze-{name}-{n}", ["analyze", str(src), "--json", str(out)], n,
                      _check_analyze(out, n, apex_tol=tol, **check), (out,),
                      # the Darboux recursion overflows; exits 2 after the full loop
                      known="exit 2" if name == "generic" else None))
    return ops


def analyze_corpus(seed: int, d: Path, scale: float = 1.0) -> list:
    """Many small polygon3 documents; per-call overhead dominates."""
    count = _scaled(240, scale, minimum=4)
    rng = np.random.default_rng(seed)
    out = d / "corpus.report.json"
    ops = []
    for i in range(count):
        n = 12 + (29 * i) % 69  # every n in [12, 80], fixed by position, not by seed
        p = random_equal_volume_polygon(rng, n)
        src = d / f"corpus-{i}.json"
        write_document(PolygonDocument.from_polygon(p), src)
        tol = 1e-8 * max(1.0, p.diameter())
        ops.append(Op(f"corpus-{i}-n{n}",
                      ["analyze", str(src), "--origin", "0,0,0", "--json", str(out)], n,
                      _check_analyze(out, n, "cone", np.zeros(3), tol, focal="general"),
                      (out,)))
    return ops


def _count_obj(path: Path) -> dict:
    counts = {"v": 0, "f": 0, "l": 0}
    with open(path) as fh:
        for line in fh:
            tag = line[:2].strip()
            if tag in counts:
                counts[tag] += 1
    return counts


def _check_resample(src_pts: np.ndarray, rs: Path):
    expected = (len(src_pts) + 5) / 4  # the first three vertices are four input steps apart

    def check() -> dict:
        doc = json.loads(rs.read_text())
        pts = np.asarray(doc["vertices"])
        _require(doc["kind"] == "framed3", "kind", doc["kind"])
        _require(np.array_equal(pts[:3], src_pts[:3]), "head", "first three vertices moved")
        _require(abs(len(pts) - expected) <= 0.03 * expected, "size",
                 f"{len(pts)} vertices, expected about {expected:.0f}")
        spread = doc["metadata"]["volume_spread"]
        _require(spread <= VOLUME_GATE, "volume_spread", f"{spread:.3e} > {VOLUME_GATE:.0e}")
        return {}
    return check


def _check_obj(obj: Path, rs: Path, per_side: dict):
    """OBJ record counts as functions of the resampled vertex count n."""
    def check() -> dict:
        n = len(json.loads(rs.read_text())["vertices"])
        got = _count_obj(obj)
        want = {tag: fn(n) for tag, fn in per_side.items()}
        _require(got == want, "obj_counts", f"{got} != {want}")
        return {}
    return check


# Fixed jitter draws, not the run's seed: the resampler snaps to an input
# vertex within an absolute 1e-12 * diameter of its search plane, which
# shifts the volume constant by ~1e-5 from that step on.  At the seed it
# fires on ~1 in 40 draws at 4e3 vertices and ~1 in 2 at 1.2e4, so
# seed-varied draws would make this workload bimodal.  Draw 1 snaps (output
# vertex 2532); draw 0 does not.
RESAMPLE_CHAINS = ((4000, 0, None, None), (12_000, 1, "check:volume_spread", "exit 2"))


def resample_export(seed: int, d: Path, scale: float = 1.0) -> list:
    """Resample a jittered dense spiral polyline, then export both meshes."""
    del seed  # see RESAMPLE_CHAINS
    rep = C.ExampleSpiralRepresentative()
    ops = []
    for n_full, draw, known_resample, known_focal in RESAMPLE_CHAINS:
        n = _scaled(n_full, scale)
        rng = np.random.default_rng(draw)
        h = 2 * np.pi / n
        jitter = rng.uniform(-0.25, 0.25, n - 3)
        t = np.concatenate([[0.0, 4 * h, 8 * h], 8 * h + h * (np.arange(1, n - 2) + jitter)])
        pts = rep(t)
        src, rs = d / f"dense-{n}.json", d / f"resampled-{n}.json"
        dev, foc = d / f"developable-{n}.obj", d / f"focal-{n}.obj"
        _framed_doc(src, FramedPolygon.silhouette(pts))
        ops += [
            Op(f"resample-{n}", ["resample", str(src), "--out", str(rs)], n,
               _check_resample(pts, rs), (rs,), known_resample),
            Op(f"developable-{n}", ["developable", str(rs), "--obj", str(dev)], rs,
               _check_obj(dev, rs, {"v": lambda m: 4 * (m - 1), "f": lambda m: m - 1,
                                    "l": lambda m: 0}), (dev,)),
            # open polygon: one focal line per side 1 .. n-3, one face between neighbours
            Op(f"focal-{n}", ["focal", str(rs), "--obj", str(foc)], rs,
               _check_obj(foc, rs, {"v": lambda m: 2 * (m - 3), "f": lambda m: m - 4,
                                    "l": lambda m: m - 3}), (foc,), known_focal),
        ]
    return ops


def _check_table1(csv: Path, n: int):
    def check() -> dict:
        rows = csv.read_text().split()
        _require(rows[0] == "N,h,pl1,pl2" and len(rows) == 2, "table", f"{len(rows)} lines")
        size, _, pl1, pl2 = rows[1].split(",")
        _require(int(size) == n, "table", f"row for N = {size}")
        if n in TABLE1_ROWS:
            _require((pl1, pl2) == TABLE1_ROWS[n], "table1_row",
                     f"({pl1}, {pl2}) != {TABLE1_ROWS[n]}")
        else:
            err = abs(float(pl1) - SPIRAL_SMOOTH_LENGTH) / SPIRAL_SMOOTH_LENGTH
            _require(err <= TABLE1_CONVERGED, "pl1_converged", f"relative error {err:.3e}")
        return {"pl1": float(pl1), "sweep_n": n}
    return check


def _check_conic(report: Path):
    def check() -> dict:
        rep = json.loads(report.read_text())
        worst = max(abs(rep["pl1"]), abs(rep["pl2"]))
        _require(worst <= CONIC_PL_TOL, "conic_length", f"|pl| = {worst:.3e}")
        return {}
    return check


def projective_sweep(seed: int, d: Path, scale: float = 1.0) -> list:
    """table1 per size, plus plength on ellipse arcs (projective length 0)."""
    ops = []
    for n in (n for n in TABLE1_SIZES if n <= max(1000, TABLE1_SIZES[-1] * scale)):
        csv = d / f"table1-{n}.csv"
        ops.append(Op(f"table1-{n}", ["table1", "--sizes", str(n), "--csv", str(csv)], n,
                      _check_table1(csv, n), (csv,),
                      # volume gate: spread grows as eps/h^3 (ROADMAP item 4)
                      known="exit 2" if n >= 10_000 else None))
    rng = np.random.default_rng(seed)
    for arc in range(3):
        a, b = rng.uniform(1.0, 2.0), rng.uniform(0.6, 1.2)
        t0, span = rng.uniform(0.0, 2 * np.pi), rng.uniform(1.2, 1.6)
        for n in (100, 1000):
            pts = C.sample_curve(C.Ellipse(a, b), t0, t0 + span, n, C.GridScheme.INCLUDE_BOTH_ENDS)
            src, report = d / f"ellipse-{arc}-{n}.csv", d / f"ellipse-{arc}-{n}.json"
            src.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts))
            ops.append(Op(f"plength-ellipse{arc}-{n}",
                          ["plength", str(src), "--auto-seed", "--report", str(report)], n,
                          _check_conic(report), (report,),
                          # volume gate, spread >= 3.7e-8 on these arcs at N = 1000
                          known="exit 2" if n == 1000 else None))
    return ops


WORKLOADS = {
    "analyze-large": analyze_large,
    "analyze-corpus": analyze_corpus,
    "resample-export": resample_export,
    "projective-sweep": projective_sweep,
}
