"""The runtime depends on numpy and the standard library alone."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# modules the interpreter's site hooks load before this script runs
# (setuptools' distutils shim, certifi) are not cpajvp's imports, so only
# what the import itself adds is checked
SCRIPT = """\
import sys
before = set(sys.modules)
import cpajvp, cpajvp.cli
print(" ".join(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def test_importing_cpajvp_loads_only_numpy_and_the_standard_library():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"cpajvp", "numpy"} <= loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"cpajvp", "numpy"}
    assert not foreign, sorted(foreign)
