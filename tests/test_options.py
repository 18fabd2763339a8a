"""Census of the public API: its names and their defaulted parameters.

Every keyword option doubles the configurations that tests must cover,
so each one the package keeps names the caller or test that sets it to
something other than its default.  A new defaulted parameter fails here
until it is added to ``KEPT`` with its caller.  The census covers the
functions and the hand-written methods (including ``__init__``) of every
name in each module's ``__all__``, and the generated ``__init__`` of each
public dataclass: a defaulted field that ``__init__`` takes is an option
like any keyword parameter (an ``init=False`` field is not).

Likewise every name in a module's ``__all__`` is used somewhere in the
package outside its own definition (re-exports in ``__init__`` do not
count), or ``PINNED`` names the paper identity or acceptance criterion
whose test keeps it.  One level down, every member of a public class
(dataclass field, enum member, public method or property) is read as an
attribute somewhere in the package, or ``PINNED_MEMBERS`` names the test
or the benchmark file that reads it.  An attribute read names no class,
so a member whose name two or more public classes share counts as read
only through ``SHARED_MEMBERS``, which names the reader of each class's
member.  Every census fails in both directions: on a new unread name and
on a pin that is no longer needed.

The tolerances, the module-level ``*_TOL`` and ``TOL_*`` names, are
listed in ``CONSTANTS`` with their values.  That census fails in both
directions too: on a tolerance it does not list, on a listed one that is
gone, and on one that no module reads.  Each of them, and each coordinate
bound in ``BOUNDS``, is read by one function; for a gate, one of
``GATES``, that function also raises the refusal it decides.

No public function or method takes more than one parameter annotated
``DarbouxField``, ``FrenetData`` or ``FocalSetData``: a stage takes the
field or one datum derived from it and reads the rest from there.

JSON text has one owner: ``documents`` alone imports ``json``, so every
report and document is written by ``documents.json_text``.

A subclass of ``GeometryError`` exists only where a caller branches on
it: each one is named in some ``except`` clause of the package.  Any
other refusal raises ``GeometryError`` with a message that says what
failed.

The texts are checked too.  Each dotted name in them that starts with an
evpoly module or public class must resolve; in a member entry, each such
function must read the member.  Each test or benchmark file a text names
must exist and read the member, call the option's function with that
option, or load the pinned name.
"""

import ast
import contextlib
import dataclasses
from collections import defaultdict
import functools
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import evpoly
from evpoly import darboux, equal_volume, invariants
from evpoly.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    # closed flags: the polygon's topology, read from every document
    "core.Polygon3.from_points(closed)": "darboux.FramedPolygon.build",
    "darboux.FramedPolygon.build(closed)": "documents.PolygonDocument.to_framed",
    "darboux.FramedPolygon.silhouette(closed)": "cli._load_framed for a bare polygon3",
    # base points
    "darboux.FramedPolygon.silhouette(apex)": "cli analyze/developable/focal --origin",
    # the paper's gauge freedom: lambda is fixed up to one additive constant
    "invariants.focal_data(gauge)": "tests/test_invariants.py, acceptance criteria 5 and 8",
    "constructions.sample_curve(scheme)": "GridScheme.INCLUDE_BOTH_ENDS in tests and benchmark",
    "constructions.Ellipse.__init__(a)": "semi-axes set in tests and benchmark",
    "constructions.Ellipse.__init__(b)": "semi-axes set in tests and benchmark",
    # the document format's free-form metadata map
    "documents.PolygonDocument.from_framed(metadata)": "cli.cmd_resample",
    "cli.main(argv)": "tests/test_cli.py and the benchmark; None reads sys.argv",
    # defaulted dataclass fields
    "core.GridSeq.__init__(topology)": "core.forward_diff, like every sequence derived from a polygon",
    "core.GridSeq.__init__(base)": "open interior windows: core.forward_diff, invariants._frenet_data",
    "darboux.DarbouxField(holonomy)": "darboux.parallel_darboux for a closed polygon",
    "darboux.OsculatingClass(apex)": "darboux.classify_osculating for a cone",
    "documents.PolygonDocument(directions)": "documents.read_document and "
                                             "PolygonDocument.from_framed, for framed3",
    "documents.PolygonDocument(metadata)": "documents.read_document and PolygonDocument.from_framed",
    "meshes.Mesh(lines)": "invariants.focal_set_mesh, one line per focal line",
    "meshes.Mesh(v_rows)": "darboux.osculating_developable, quads that share rows",
}

# public names that nothing in the package calls, each kept by its reader
PINNED = {
    "constructions.Ellipse": "the projective-sweep arcs, perfbench/workloads.py",
    "core.det2": "planar areas in tests/conftest.py and tests/test_acceptance.py; "
                 "projective.b_sequence writes it out column by column",
}

# members of public classes that nothing in the package reads, each kept by its reader
PINNED_MEMBERS = {
    "core.GridSeq.at": "slot lookups in tests/test_invariants.py; the benchmark tracer counts it",
    "documents.PolygonDocument.from_polygon": "the polygon3 corpus, perfbench/workloads.py",
}

# members whose name two or more public classes share, each with the
# reader of that class's member
SHARED_MEMBERS = {
    "darboux.SurfaceKind.GENERAL": "darboux.classify_osculating",
    "invariants.FocalKind.GENERAL": "invariants.classify_focal",
    "invariants.FrenetData.c":
        "the volume constant in roundoff floors, tests/test_kernels.py, tests/test_acceptance.py",
    "projective.LiftNormalization.c": "projective.lift_representative, cli.cmd_plength",
    "core.Polygon3.closed": "FramedPolygon.closed, PolygonDocument.from_polygon",
    "darboux.FramedPolygon.closed":
        "darboux.validate_frame and parallel_darboux, invariants.frenet, cli.cmd_analyze",
    "documents.PolygonDocument.closed":
        "PolygonDocument.to_framed, documents.write_document, cli._load_framed, cli.cmd_plength",
    "constructions.Ellipse.dim": "constructions.sample_curve",
    "constructions.ExampleSpiral.dim": "constructions.sample_curve",
    "constructions.ExampleSpiralRepresentative.dim": "constructions.sample_curve",
    "darboux.FramedPolygon.directions":
        "FramedPolygon.unit_directions, PolygonDocument.from_framed",
    "documents.PolygonDocument.directions":
        "PolygonDocument.to_framed, documents.write_document",
    "darboux.OsculatingClass.kind": "cli.cmd_analyze",
    "documents.PolygonDocument.kind": "cli._load_framed, cli.cmd_plength, documents.write_document",
    "invariants.FocalClass.kind": "cli.cmd_analyze",
    "core.GridSeq.topology": "GridSeq.window and stencil, core.forward_diff",
    "core.Polygon3.topology": "darboux.parallel_darboux, invariants.frenet",
    "core.GridSeq.values": "core.forward_diff, cli._seq_payload",
    "equal_volume.VolumeReport.values": "equal_volume.volume_constant",
    "core.Polygon3.vertices": "Polygon3.points, invariants.FocalSetData.Q",
    "documents.PolygonDocument.vertices":
        "PolygonDocument.to_framed, documents.write_document, cli.cmd_plength",
    "meshes.Mesh.vertices":
        "the face_planarity oracle in tests/conftest.py, tests/test_meshes.py, tests/test_darboux.py",
    "projective.PlanarProjectivePolygon.vertices":
        "projective.lift_representative, perfbench/spans.py",
}

# tolerances that were keyword options, kept as module constants
CONSTANTS = [
    (darboux, "TOL_FACE", 1e-8),
    (darboux, "CLASSIFY_TOL", 1e-6),
    (equal_volume, "EQUAL_VOLUME_TOL", 1e-8),
    (invariants, "GAUGE_CLOSURE_TOL", 1e-9),
    (invariants, "FOCAL_CLASSIFY_TOL", 1e-6),
]


def _written_in(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _callables(module):
    """(qualified name, function) of each public function and hand-written method."""
    for name in module.__all__:
        obj = inspect.unwrap(getattr(module, name))  # see through darboux.once_per_field
        if inspect.isfunction(obj) and _written_in(obj, module):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            init = vars(obj).get("__init__")
            if dataclasses.is_dataclass(obj) and init is not None and not _written_in(init, module):
                yield name, init  # generated: its defaulted parameters are the fields'
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if (inspect.isfunction(fn) and _written_in(fn, module)
                        and (attr == "__init__" or not attr.startswith("_"))):
                    yield f"{name}.{attr}", fn


def defaulted_parameters() -> set:
    found = set()
    for info in pkgutil.iter_modules(evpoly.__path__):
        module = importlib.import_module(f"evpoly.{info.name}")
        for qual, fn in _callables(module):
            for p in inspect.signature(fn).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{qual}({p.name})")
    return found


def used_names() -> set:
    """Names loaded in the package's modules outside the top-level definition of that name."""
    found = set()
    for path in Path(evpoly.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            found |= {node.id for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id != own}
    return found


def loaded_attributes() -> set:
    """Attribute names read (``x.name`` in a load) in the package's modules."""
    found = set()
    for path in Path(evpoly.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            found |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return found


def class_members():
    """(qualified name, member name) of each member of every public class."""
    for info in pkgutil.iter_modules(evpoly.__path__):
        module = importlib.import_module(f"evpoly.{info.name}")
        for name in module.__all__:
            cls = getattr(module, name)
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            # public methods, properties and enum members, plus the fields
            # of a dataclass, which have no class attribute without a default
            members = {attr for attr in vars(cls) if not attr.startswith("_")}
            if dataclasses.is_dataclass(cls):
                members |= {fld.name for fld in dataclasses.fields(cls)}
            for attr in members:
                yield f"{info.name}.{name}.{attr}", attr


def shared_members() -> set:
    """Members whose name another public class's member also has."""
    owners = defaultdict(set)
    for qual, attr in class_members():
        owners[attr].add(qual)
    return {qual for quals in owners.values() if len(quals) > 1 for qual in quals}


def unread_members() -> set:
    """Members nothing in the package reads, apart from shared ones: a read
    of a shared name does not show which class it reads."""
    read, shared = loaded_attributes(), shared_members()
    return {qual for qual, attr in class_members() if attr not in read and qual not in shared}


def unused_public_names() -> set:
    used = used_names()
    return {f"{info.name}.{name}" for info in pkgutil.iter_modules(evpoly.__path__)
            for name in importlib.import_module(f"evpoly.{info.name}").__all__
            if name not in used}


def test_every_public_name_has_a_use():
    unused = unused_public_names()
    assert sorted(unused - PINNED.keys()) == [], "unused public names: call them or pin them"
    assert sorted(PINNED.keys() - unused) == [], "names used or gone: drop them from PINNED"


def test_every_class_member_has_a_reader():
    unread = unread_members()
    assert sorted(unread - PINNED_MEMBERS.keys()) == [], "unread members: read them or pin them"
    assert sorted(PINNED_MEMBERS.keys() - unread) == [], "members read or gone: unpin them"


def test_every_shared_member_names_its_reader():
    shared = shared_members()
    assert sorted(shared - SHARED_MEMBERS.keys()) == [], "shared names: name each class's reader"
    assert sorted(SHARED_MEMBERS.keys() - shared) == [], "names no longer shared: drop them"


MODULES = {info.name: importlib.import_module(f"evpoly.{info.name}")
           for info in pkgutil.iter_modules(evpoly.__path__)}
PUBLIC_CLASSES = {name: obj for module in MODULES.values() for name in module.__all__
                  if inspect.isclass(obj := getattr(module, name))}
DOTTED = re.compile(r"(?<![\w/.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILES = re.compile(r"\b(?:tests|perfbench)/\w+\.py\b")


def resolve(dotted: str):
    """The evpoly object a dotted name in a census text names, seen through
    ``inspect.unwrap``; None if its first part is no evpoly module or
    public class.  Raises AttributeError if the rest does not resolve."""
    first, *rest = dotted.split(".")
    obj = MODULES.get(first) or PUBLIC_CLASSES.get(first)
    if obj is None:
        return None
    for attr in rest:
        obj = getattr(obj, attr)
    obj = inspect.unwrap(obj)
    if isinstance(obj, property):
        return obj.fget
    return obj.func if isinstance(obj, functools.cached_property) else obj


def reads(tree, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))


def loads(tree, name: str) -> bool:
    return reads(tree, name) or any(isinstance(node, ast.Name) and node.id == name
                                    and isinstance(node.ctx, ast.Load)
                                    for node in ast.walk(tree))


def binds(tree, key: str) -> bool:
    """True if the tree calls the function of ``KEPT`` key ``module.qual(option)``
    with that option, by keyword or by position."""
    qual, option = key[:-1].split("(")
    fn = resolve(qual)
    called = qual.split(".")[-2] if qual.endswith(".__init__") else qual.split(".")[-1]
    params = [p for p in inspect.signature(fn).parameters if p not in ("self", "cls")]
    at = params.index(option)
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == called
               and (len(node.args) > at or any(k.arg == option for k in node.keywords))
               for node in ast.walk(tree))


CENSUSES = {"KEPT": KEPT, "PINNED": PINNED, "PINNED_MEMBERS": PINNED_MEMBERS,
            "SHARED_MEMBERS": SHARED_MEMBERS}


def census_text_faults(kind: str, census: dict) -> list:
    """Faults in the texts of ``census``, which is read as the table ``kind``."""
    faults = []
    for key, text in census.items():
        member = key.rsplit(".", 1)[1]
        for dotted in DOTTED.findall(text):
            try:
                obj = resolve(dotted)
            except AttributeError:
                faults.append(f"{key}: {dotted} does not resolve")
                continue
            if obj is not None and kind in ("PINNED_MEMBERS", "SHARED_MEMBERS"):
                tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
                if not reads(tree, member):
                    faults.append(f"{key}: {dotted} does not read .{member}")
        for name in FILES.findall(text):
            path = ROOT / name
            if not path.is_file():
                faults.append(f"{key}: no file {name}")
                continue
            tree = ast.parse(path.read_text())
            found = (binds(tree, key) if kind == "KEPT" else
                     loads(tree, member) if kind == "PINNED" else reads(tree, member))
            if not found:
                faults.append(f"{key}: {name} does not use it")
    return faults


@pytest.mark.parametrize("kind", CENSUSES)
def test_census_texts_name_real_readers(kind):
    assert census_text_faults(kind, CENSUSES[kind]) == []


@pytest.mark.parametrize("kind, key, text, fault", [
    ("SHARED_MEMBERS", "core.Polygon3.vertices", "invariants.frenet",
     "invariants.frenet does not read .vertices"),
    ("PINNED_MEMBERS", "core.GridSeq.at", "core.GridSeq.slot_at",
     "core.GridSeq.slot_at does not resolve"),
    ("PINNED", "constructions.Ellipse", "tests/test_ellipse.py", "no file tests/test_ellipse.py"),
    ("PINNED_MEMBERS", "core.GridSeq.at", "tests/test_cli.py",
     "tests/test_cli.py does not use it"),
    ("KEPT", "invariants.focal_data(gauge)", "tests/test_projective.py",
     "tests/test_projective.py does not use it"),
], ids=["reader", "name", "file", "member", "option"])
def test_census_text_faults_are_caught(kind, key, text, fault):
    """Each kind of wrong text in a census entry is reported."""
    assert census_text_faults(kind, {key: text}) == [f"{key}: {fault}"]


BENCH_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_benchmark_inputs_build(name, tmp_path, monkeypatch):
    """Each workload the benchmark declares imports and builds its op list, at a tiny scale."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # as running perfbench/run.py does
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(BENCH_WORKLOADS)
    ops = WORKLOADS[name](1, tmp_path, scale=0.01)
    assert ops
    for op in ops:
        assert build_parser().parse_args(op.argv).command == op.argv[0], op.name


def test_benchmark_tracer_names_resolve():
    """Every function the benchmark's tracer wraps or counts exists in evpoly."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for mod, quals in table.items():
            module = importlib.import_module(f"evpoly.{mod}")
            for qual in quals:
                # Tracer.install takes a method from its class's __dict__
                cls_name, _, attr = qual.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                if owner is None or attr not in vars(owner):
                    missing.append(f"{mod}.{qual}")
    assert missing == []


def test_benchmark_tracer_runs_every_op(tmp_path, monkeypatch):
    """Every op of each workload, at a tiny scale, under the benchmark's tracer.

    The tracer reads more than the names it wraps: each span's input
    vertex count comes from the first argument's attributes
    (``spans._vertices``), so a renamed attribute fails here.  Every
    wrapped function runs, every op ends as it does in the benchmark, and
    the spans form one tree per op, each child within its parent.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # as running perfbench/run.py does
    from spans import PER_VERTEX, Tracer, counter_names, span_names
    from workloads import WORKLOADS, Mismatch

    tracer = Tracer()
    tracer.install()
    try:
        for name in BENCH_WORKLOADS:
            (tmp_path / name).mkdir()
            for op in WORKLOADS[name](1, tmp_path / name, scale=0.01):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), tracer.op(op.name):
                    code = main(op.argv)
                assert code == 0 or f"exit {code}" == op.known, op.name
                try:
                    if code == 0:
                        op.check()
                except Mismatch as exc:  # as perfbench/run.py tells a known failure
                    assert f"check:{exc.key}" == op.known, op.name
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert {s["name"] for s in spans} == set(span_names()) | {"cli"}
    assert set(tracer.counts) <= {f"{c}.calls" for c in counter_names()}
    for s in spans:
        if s["parent"] is None:
            assert s["name"] == "cli"
            continue
        parent = spans[s["parent"]]
        assert parent["op"] == s["op"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert (s["vertices"] > 0) == (s["name"].split(".")[0] in PER_VERTEX), s["name"]


# a Darboux field and the data derived from it; taking one of them alone,
# a stage cannot be handed a mismatched pair
FIELD_TYPES = {"DarbouxField", "FrenetData", "FocalSetData"}


def takes_matched_pair(fn) -> bool:
    """True if ``fn`` takes more than one parameter annotated with a ``FIELD_TYPES`` name."""
    return sum(getattr(p.annotation, "__name__", p.annotation) in FIELD_TYPES
               for p in inspect.signature(fn).parameters.values()) > 1


def test_no_function_takes_a_field_with_its_derived_data():
    pairs = [f"{info.name}.{qual}" for info in pkgutil.iter_modules(evpoly.__path__)
             for qual, fn in _callables(importlib.import_module(f"evpoly.{info.name}"))
             if takes_matched_pair(fn)]
    assert pairs == [], "take the field or one datum alone and read the rest from it"


def test_matched_pairs_are_caught():
    def classify(df: "DarbouxField", fd: "FocalSetData"): ...

    def focal(df: invariants.DarbouxField, gauge: float = 0.0): ...

    assert takes_matched_pair(classify) and not takes_matched_pair(focal)


def test_every_defaulted_parameter_has_a_caller():
    found = defaulted_parameters()
    assert sorted(found - KEPT.keys()) == [], "new options: name their caller in KEPT"
    assert sorted(KEPT.keys() - found) == [], "options gone: drop them from KEPT"


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in CONSTANTS])
def test_tolerance_constants(module, name, value):
    assert getattr(module, name) == value


TOLERANCE = re.compile(r"\w+_TOL|TOL_\w+")


def tolerance_census(sources: dict) -> tuple[set, set]:
    """The module-level tolerances ``module.NAME`` that ``sources`` (module
    name -> source text) define, and those of them that no module reads,
    as a name or an attribute, outside the assignment that defines it."""
    defined, read = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        defined |= {f"{module}.{target.id}" for top in tree.body if isinstance(top, ast.Assign)
                    for target in top.targets
                    if isinstance(target, ast.Name) and TOLERANCE.fullmatch(target.id)}
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return defined, {name for name in defined if name.split(".")[1] not in read}


def test_every_tolerance_is_listed_and_read():
    sources = {path.stem: path.read_text()
               for path in Path(evpoly.__file__).parent.glob("*.py") if path.name != "__init__.py"}
    defined, dead = tolerance_census(sources)
    listed = {f"{module.__name__.rpartition('.')[2]}.{name}" for module, name, _ in CONSTANTS}
    assert sorted(defined - listed) == [], "new tolerances: list them in CONSTANTS"
    assert sorted(listed - defined) == [], "tolerances gone: drop them from CONSTANTS"
    assert sorted(dead) == [], "tolerances nothing reads: delete them"


# the coordinate bounds core.COORD_MAX and projective.LIFT_COORD_MAX, which
# like the gate tolerances refuse an input
BOUNDS = {"COORD_MAX", "LIFT_COORD_MAX"}
# the constants a refusal is decided by; the others are classifier tolerances
GATES = {"TOL_FACE", "EQUAL_VOLUME_TOL", "GAUGE_CLOSURE_TOL", "COORD_MAX", "LIFT_COORD_MAX"}


def _functions(tree, prefix):
    """(qualified name, node) of each function in ``tree``, methods and nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qual, node
            yield from _functions(node, qual)
        else:
            yield from _functions(node, prefix)


def _own_nodes(fn):
    """The nodes of function ``fn`` outside the functions nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _loaded(node):
    """The name or attribute that ``node`` loads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def reader_faults(sources: dict, names: set, gates: set) -> list:
    """Faults in who reads ``names`` in ``sources`` (module name -> source
    text): a name loaded by no function or by more than one, and a name of
    ``gates`` whose one reader raises nothing.  A load outside every
    function counts as a reader of its own."""
    readers, raising = defaultdict(set), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        inside = set()
        for qual, fn in _functions(tree, module):
            own = list(_own_nodes(fn))
            inside |= {id(node) for node in own}
            if any(isinstance(node, ast.Raise) for node in own):
                raising.add(qual)
            for name in names & {_loaded(node) for node in own}:
                readers[name].add(qual)
        for name in names & {_loaded(node) for node in ast.walk(tree) if id(node) not in inside}:
            readers[name].add(f"{module} outside a function")
    faults = []
    for name in sorted(names):
        found = sorted(readers[name])
        if len(found) != 1:
            faults.append(f"{name}: read by {found}, not by one function")
        elif name in gates and found[0] not in raising:
            faults.append(f"{name}: {found[0]} decides a refusal it does not raise")
    return faults


def test_each_tolerance_has_one_reader():
    """One function reads each tolerance and bound; a gate's reader also raises its refusal."""
    sources = {path.stem: path.read_text() for path in Path(evpoly.__file__).parent.glob("*.py")}
    names = {name for _, name, _ in CONSTANTS} | BOUNDS
    assert reader_faults(sources, names, GATES) == []


def test_second_readers_and_gates_that_do_not_raise_are_caught():
    sources = {
        "a": "TOL_A = 1.0\nGATE_TOL = 2.0\n"
             "def decide(x):\n    return x < GATE_TOL\n"
             "def refuse(x):\n    if not decide(x):\n        raise ValueError(x)\n"
             "def f(x):\n    return x < TOL_A\n",
        "b": "from . import a\ndef g(x):\n    def inner():\n        raise ValueError\n"
             "    return x < a.TOL_A\n",
    }
    assert reader_faults(sources, {"TOL_A", "GATE_TOL"}, {"GATE_TOL"}) == [
        "GATE_TOL: a.decide decides a refusal it does not raise",
        "TOL_A: read by ['a.f', 'b.g'], not by one function",
    ]
    sources["b"] = "from . import a\nLIMIT = 2 * a.TOL_A\n"
    sources["a"] = sources["a"].replace("return x < GATE_TOL", "raise ValueError(x < GATE_TOL)")
    assert reader_faults(sources, {"TOL_A", "GATE_TOL"}, {"GATE_TOL"}) == [
        "TOL_A: read by ['a.f', 'b outside a function'], not by one function",
    ]


def test_tolerance_census_catches_unread_constants():
    sources = {
        "a": '"""Mentions ``DEAD_TOL``."""\nDEAD_TOL = 1.0\nTOL_NEAR = 2.0\nFAR_TOL = 3.0\n'
             "def f(x):\n    return x < TOL_NEAR\n",
        "b": "from . import a\nLIMIT = 4.0\ndef g(x):\n    return x < a.FAR_TOL\n",
    }
    assert tolerance_census(sources) == ({"a.DEAD_TOL", "a.TOL_NEAR", "a.FAR_TOL"}, {"a.DEAD_TOL"})


def test_analyze_has_no_tol_flag(capsys):
    assert main(["analyze", "in.json", "--tol", "1e-6"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def uncaught_refusals(sources: dict) -> set:
    """The classes derived from ``GeometryError`` in ``sources`` (module
    name -> source text) that no ``except`` clause there names."""
    trees = [ast.parse(text) for text in sources.values()]
    bases = {node.name: {ast.unparse(base).rpartition(".")[2] for base in node.bases}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    derived = set()
    while new := {name for name, parents in bases.items()
                  if parents & (derived | {"GeometryError"})} - derived:
        derived |= new
    caught = set()
    for tree in trees:
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                named = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught |= {ast.unparse(node).rpartition(".")[2] for node in named}
    return derived - caught


def test_every_refusal_class_has_a_catcher():
    sources = {path.stem: path.read_text() for path in Path(evpoly.__file__).parent.glob("*.py")}
    assert sorted(uncaught_refusals(sources)) == [], \
        "raise GeometryError: a refusal gets its own class only where a caller catches it"


@pytest.mark.parametrize("handler", ["except Short:", "except (OSError, Short) as exc:",
                                     "except m.Short:"])
def test_uncaught_refusal_classes_are_caught(handler):
    classes = ("class GeometryError(ValueError):\n    pass\n"
               "class Document(GeometryError):\n    pass\n"
               "class Short(m.Document):\n    pass\n")
    calls = "try:\n    f()\nexcept Document:\n    pass\n"
    assert uncaught_refusals({"a": classes, "b": calls}) == {"Short"}
    calls += f"try:\n    f()\n{handler}\n    pass\n"
    assert uncaught_refusals({"a": classes, "b": calls}) == set()


def json_importers(sources: dict) -> set:
    """The modules of ``sources`` (module name -> source text) that import ``json``."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
            if any(name.partition(".")[0] == "json" for name in names):
                found.add(module)
    return found


def test_only_documents_imports_json():
    sources = {path.stem: path.read_text() for path in Path(evpoly.__file__).parent.glob("*.py")}
    assert json_importers(sources) == {"documents"}, "write JSON through documents.json_text"


def test_json_importers_are_caught():
    sources = {"a": "import json\n", "b": "from json import dumps\n",
               "c": "def f():\n    import json.decoder as d\n", "d": "import os, json\n",
               "e": "from . import json_text\nimport jsonschema\nfrom .json import x\n"}
    assert json_importers(sources) == {"a", "b", "c", "d"}
