"""The cold import of the command line loads numpy and evpoly, nothing else."""

import os
import subprocess
import sys

import evpoly


def loaded_modules(module: str) -> set:
    """Names in ``sys.modules`` after importing ``module`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(evpoly.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = f"import sys, {module}; print('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_adds_only_evpoly_to_numpy():
    numpy_only = loaded_modules("numpy")
    cli = loaded_modules("evpoly.cli")
    added = {name.partition(".")[0] for name in cli - numpy_only}
    assert added - set(sys.stdlib_module_names) == {"evpoly"}
    assert not [name for name in cli if name == "scipy" or name.startswith("scipy.")]
