"""The compiled kernel, built from the shipped ``_flowcore.c``, against
the pure one.

The extension is built into a temporary directory, never into the
source tree: a ``.so`` beside ``_flowpure.py`` would switch every other
test, and the benchmark, to the compiled backend. The package's Python
modules are copied beside it, and ``tests/test_backends.py`` runs in a
subprocess that imports sepkit from there, so its twin tests run
instead of skipping. Skips only when no C compiler is found.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _compiler() -> str | None:
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    return shutil.which(cc[0]) if cc else None


@pytest.mark.skipif(_compiler() is None, reason="no C compiler found")
def test_compiled_twin_tests_pass(tmp_path):
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(tmp_path / "build")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    pkg = lib / "sepkit"
    # The extension is optional, so a failed compile still exits 0.
    assert list(pkg.glob("_flowcore.*")), build.stdout + build.stderr
    for module in (ROOT / "src" / "sepkit").glob("*.py"):
        shutil.copy(module, pkg)
    env = dict(os.environ, PYTHONPATH=str(lib))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         "tests/test_backends.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert " passed" in run.stdout and "skipped" not in run.stdout, run.stdout
