"""Span recorder for the traced run.

``Tracer.install`` wraps the public evpoly functions listed below in every
evpoly module namespace that holds them (``evpoly.cli.parallel_darboux``
as well as ``evpoly.darboux.parallel_darboux``), so calls between modules
are seen too.  Nothing in the package changes; ``uninstall`` puts the
originals back.  Spans and counts are recorded only inside ``Tracer.op``,
whose root span, named ``cli``, covers one ``evpoly.cli.main`` call.
"""

import functools
import importlib
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# module -> public functions that get a span
SPANNED = {
    "darboux": ("validate_frame", "parallel_darboux", "osculating_points",
                "classify_osculating", "osculating_developable"),
    "invariants": ("frenet", "focal_data", "classify_focal", "focal_set_mesh",
                   "centroaffine_frenet"),
    "projective": ("b_sequence", "lift_representative", "projective_lengths"),
    "constructions": ("sample_curve",),
    "equal_volume": ("darboux_volumes", "resample_equal_volume"),
    "documents": ("read_document", "write_document"),
    "meshes": ("Mesh.write_obj",),
}
# modules whose spans also report microseconds of self time per input vertex
PER_VERTEX = ("darboux", "invariants", "projective", "constructions", "equal_volume")
# module -> methods that are only counted: a span per call would swamp the run
COUNTED = {"core": ("GridSeq.at", "GridSeq.__init__")}


def span_names() -> list:
    return [f"{mod}.{qual}" for mod, quals in SPANNED.items() for qual in quals]


def counter_names() -> list:
    return [f"{mod}.{qual.replace('__init__', 'init')}"
            for mod, quals in COUNTED.items() for qual in quals]


def _vertices(args, kwargs) -> int:
    """Input vertex count of a call, read from its first argument."""
    if not args:
        return 0
    a = args[0]
    if hasattr(a, "polygon"):          # FramedPolygon
        return len(a.polygon)
    if hasattr(a, "xi"):               # DarbouxField
        return len(a.xi)
    if hasattr(a, "O"):                # FocalSetData: one O per side
        return len(a.O) + (a.O.topology.value == "open")
    if hasattr(a, "b"):                # PlanarProjectivePolygon
        return len(a.vertices)
    if callable(a):                    # sample_curve(curve, t0, t1, N)
        return int(args[3] if len(args) > 3 else kwargs["N"])
    return len(a)                      # Polygon3, GridSeq, arrays


def _size_of(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


# name -> extra span fields, computed after the span has ended
_EXTRAS = {
    "documents.read_document": lambda args, result: {"bytes": _size_of(args[0])},
    "documents.write_document": lambda args, result: {"bytes": _size_of(args[1])},
    "meshes.Mesh.write_obj": lambda args, result: {"bytes": _size_of(args[1])},
    "equal_volume.resample_equal_volume":
        lambda args, result: {"out_vertices": len(result.framed.polygon)},
}


class Tracer:
    def __init__(self):
        self.spans = []      # dicts: name, op, parent (index or None), start, end, ...
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._patches = []

    def install(self) -> None:
        for mod, quals in SPANNED.items():
            for qual in quals:
                self._patch(mod, qual, self._spanned)
        for mod, quals in COUNTED.items():
            for qual in quals:
                self._patch(mod, qual, self._counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, mod: str, qual: str, make) -> None:
        module = importlib.import_module(f"evpoly.{mod}")
        name = f"{mod}.{qual.replace('__init__', 'init')}"
        cls_name, _, attr = qual.rpartition(".")
        if cls_name:
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(name, original))
            return
        original = getattr(module, attr)
        wrapper = make(name, original)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").split(".")[0] != "evpoly":
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def _spanned(self, name: str, fn):
        extras = _EXTRAS.get(name)
        per_vertex = name.split(".")[0] in PER_VERTEX

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = {"name": name, "op": self._op, "parent": self._stack[-1],
                    "vertices": _vertices(args, kwargs) if per_vertex else 0,
                    "failed": True}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["failed"] = False
                return result
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                if extras is not None and not span["failed"]:
                    span.update(extras(args, result))
        return wrapper

    def _counted(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def op(self, op_id: str):
        """Root span ``cli`` around one CLI call; every recorded span hangs below it."""
        root = {"name": "cli", "op": op_id, "parent": None, "vertices": 0, "failed": False}
        self._stack = [len(self.spans)]
        self.spans.append(root)
        self._op = op_id
        root["start"] = perf_counter()
        try:
            yield root
        finally:
            root["end"] = perf_counter()
            self._op = None
            self._stack = []


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
