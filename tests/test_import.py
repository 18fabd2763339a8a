"""The cold import of the command line loads numpy and evpoly, nothing else."""

import os
import subprocess
import sys

import evpoly


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this evpoly."""
    src = os.path.dirname(os.path.dirname(evpoly.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def loaded_modules(module: str) -> set:
    """Names in ``sys.modules`` after importing ``module`` in a fresh interpreter."""
    return set(fresh(f"import sys, {module}; print('\\n'.join(sorted(sys.modules)))").split())


def test_cli_import_adds_only_evpoly_to_numpy():
    numpy_only = loaded_modules("numpy")
    cli = loaded_modules("evpoly.cli")
    added = {name.partition(".")[0] for name in cli - numpy_only}
    assert added - set(sys.stdlib_module_names) == {"evpoly"}
    assert not [name for name in cli if name == "scipy" or name.startswith("scipy.")]


def test_plain_command_line_loads_no_argparse(tmp_path):
    """A command line in the plain form is read from the command table alone, so
    argparse (and the gettext it imports) loads only for help, usage errors and
    other command-line forms."""
    csv = tmp_path / "t.csv"
    argv = ["table1", "--sizes", "10", "--csv", str(csv)]
    out = fresh(f"import sys, evpoly.cli as cli; assert cli.main({argv!r}) == 0; "
                "print(*sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert out == "\n"
    assert csv.read_text().startswith("N,h,pl1,pl2\n10,")
    out = fresh("import evpoly.cli as cli; cli.main(['--help'])")
    assert out.startswith("usage: evpoly [-h] {analyze,")


def test_cli_import_builds_no_float_text_table():
    """The float writer's tables (Schubfach's powers of ten among them) are built
    on first use by an array of at least ``ARRAY_TEXT_MIN`` floats, not at import."""
    out = fresh("import numpy as np, evpoly.cli, evpoly.documents as d; "
                "built = d._tables.cache_info().currsize; "
                "d.json_text({'v': np.ones(3)}); print(built, d._tables.cache_info().currsize); "
                "d.json_text({'v': np.ones(d.ARRAY_TEXT_MIN)}); "
                "print(d._tables.cache_info().currsize)")
    assert out == "0 0\n1\n"
