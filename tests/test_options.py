"""Census of the public API: its names and their defaulted parameters.

Every keyword option doubles the configurations that tests must cover,
so each one the package keeps names the caller or test that sets it to
something other than its default.  A new defaulted parameter fails here
until it is added to ``KEPT`` with its caller.  The census covers the
functions and the hand-written methods (including ``__init__``) of every
name in each module's ``__all__``; dataclass field defaults are record
fields, not options, and are not counted.

Likewise every name in a module's ``__all__`` is used somewhere in the
package outside its own definition (re-exports in ``__init__`` do not
count), or ``PINNED`` names the paper identity or acceptance criterion
whose test keeps it.  One level down, every member of a public class
(dataclass field, enum member, public method or property) is read as an
attribute somewhere in the package, or ``PINNED_MEMBERS`` names the test
or the benchmark file that reads it.  Both censuses fail in both
directions: on a new unread name and on a pin that is no longer needed.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import evpoly
from evpoly import constructions, darboux, equal_volume, invariants
from evpoly.cli import main

KEPT = {
    # closed flags: the polygon's topology, read from every document
    "core.Polygon3.from_points(closed)": "darboux.FramedPolygon.build, constructions.silhouette_lift",
    "darboux.FramedPolygon.build(closed)": "documents.PolygonDocument.to_framed",
    "darboux.FramedPolygon.silhouette(closed)": "cli._load_framed for a bare polygon3",
    "constructions.PlanarEqualAreaPolygon.from_vertices(closed)":
        "constructions.regular_equal_area and PlanarEqualAreaPolygon.normalized",
    "projective.PlanarProjectivePolygon.from_vertices(closed)": "cli.cmd_plength",
    # base points
    "darboux.FramedPolygon.silhouette(apex)": "cli analyze/developable/focal --origin",
    "equal_volume.centroaffine_volumes(origin)": "invariants.centroaffine_frenet",
    "invariants.centroaffine_frenet(origin)": "tests/test_invariants.py, a translated polygon",
    # the paper's gauge freedom: lambda is fixed up to one anchor value
    "invariants.focal_data(gauge)": "tests/test_invariants.py, acceptance criteria 5 and 8",
    # mesh size
    "darboux.osculating_developable(extent)": "cli developable --extent",
    "invariants.focal_set_mesh(extent)": "cli focal --extent",
    "darboux.parallel_darboux(seed_scale)": "tests/test_darboux.py, tests/test_kernels.py",
    "darboux.parallel_darboux(tol_face)": "acceptance criterion 4, tests/test_kernels.py",
    "darboux.validate_frame(tol_face)": "darboux.parallel_darboux passes its tol_face",
    "constructions.sample_curve(scheme)": "GridScheme.INCLUDE_BOTH_ENDS in tests and benchmark",
    "constructions.Ellipse.__init__(a)": "semi-axes set in tests and benchmark",
    "constructions.Ellipse.__init__(b)": "semi-axes set in tests and benchmark",
    # the document format's free-form metadata map
    "documents.PolygonDocument.from_framed(metadata)": "cli.cmd_resample",
    "cli.main(argv)": "tests/test_cli.py and the benchmark; None reads sys.argv",
}

# public names that nothing in the package calls, each kept by a test of the paper
PINNED = {
    "constructions.silhouette_lift": "acceptance criterion 5, the single-line focal set",
    "constructions.lift_residuals": "acceptance criterion 5, the lift relation phi'' = -k phi + e3",
    "constructions.recover_base_point": "acceptance criterion 5, the hidden base point",
    "constructions.random_equal_area": "acceptance criteria 5 and 8, the equal-area corpora",
    "constructions.regular_equal_area": "acceptance criterion 8, curvature of the regular n-gon",
    "constructions.area_lift": "the constant-mu space polygon, tests/test_constructions.py",
    "constructions.Ellipse": "a conic has projective length 0, tests/test_projective.py",
    "equal_volume.space_volumes": "the space-polygon volume condition, on area_lift",
    "invariants.planar_reduction": "acceptance criterion 8, the planar reduction",
    "invariants.mu_prime_check": "the identity mu' = rho1' - sigma tau, tests/test_invariants.py",
}

# members of public classes that nothing in the package reads, each kept by its reader
PINNED_MEMBERS = {
    "core.GridSeq.at": "perfbench/spans.py COUNTED counts its calls; slot lookups in the tests",
    "core.GridSeq.slots": "the open-window slot bookkeeping, tests/test_invariants.py",
    "invariants.FocalSetData.O": "perfbench/spans.py _vertices sizes the focal spans by it",
    "documents.PolygonDocument.from_polygon": "the polygon3 corpus, perfbench/workloads.py",
    "meshes.Mesh.face_planarity":
        "the developable's and the focal set's faces are planar, "
        "tests/test_darboux.py and tests/test_invariants.py",
    "constructions.PlanarEqualAreaPolygon.area_spread":
        "the equal-area corpora stay within EQUAL_AREA_TOL, tests/test_constructions.py",
    # the record that the pinned planar_reduction returns (acceptance criterion 8)
    "invariants.PlanarReduction.equal_area": "the equal-area check of planar_reduction",
    "invariants.PlanarReduction.area_spread": "the equal-area check of planar_reduction",
    "invariants.PlanarReduction.rho": "acceptance criterion 8, the regular n-gon's curvature",
    "invariants.PlanarReduction.evolute": "acceptance criterion 8, the evolute",
    "invariants.PlanarReduction.frame": "the plane coordinates rho and the evolute are taken in",
}

# tolerances that were keyword options, kept as module constants
CONSTANTS = [
    (darboux, "OSCULATING_AGREEMENT_TOL", 1e-10),
    (darboux, "CLASSIFY_TOL", 1e-6),
    (equal_volume, "EQUAL_VOLUME_TOL", 1e-8),
    (invariants, "FOCAL_AGREEMENT_TOL", 1e-9),
    (invariants, "GAUGE_CLOSURE_TOL", 1e-9),
    (invariants, "FOCAL_CLASSIFY_TOL", 1e-6),
    (invariants, "PLANARITY_TOL", 1e-9),
    (constructions, "SUPPORT_AGREEMENT_TOL", 1e-10),
    (constructions, "EQUAL_AREA_TOL", 1e-10),
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


def unread_members() -> set:
    read = loaded_attributes()
    return {qual for qual, attr in class_members() if attr not in read}


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


def test_benchmark_tracer_names_resolve():
    """Every function the benchmark's tracer wraps or counts exists in evpoly."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
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


def test_every_defaulted_parameter_has_a_caller():
    found = defaulted_parameters()
    assert sorted(found - KEPT.keys()) == [], "new options: name their caller in KEPT"
    assert sorted(KEPT.keys() - found) == [], "options gone: drop them from KEPT"


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in CONSTANTS])
def test_tolerance_constants(module, name, value):
    assert getattr(module, name) == value


def test_analyze_has_no_tol_flag(capsys):
    assert main(["analyze", "in.json", "--tol", "1e-6"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
