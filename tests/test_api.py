"""The package's public surface and its import cost."""

import os
import subprocess
import sys
from pathlib import Path

import ajclab


def test_every_exported_name_resolves():
    missing = [name for name in ajclab.__all__ if not hasattr(ajclab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from ajclab import *", namespace)
    assert set(ajclab.__all__) <= set(namespace)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ajclab and return its stdout split into words."""
    src = Path(ajclab.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_does_not_load_scipy_fft():
    # importing scipy.fft adds about 0.1 s to every fresh process; the
    # elliptic oracle's transforms are numpy.fft's too
    code = (
        "import ajclab, sys; print('scipy.fft' in sys.modules); "
        "g = ajclab.GridSpec(4); "
        "print(ajclab.elliptic_kernel_dim(ajclab.standard_acs(g), g).kernel_dim); "
        "print('scipy.fft' in sys.modules)"
    )
    assert run_fresh(code) == ["False", "2", "False"]


def test_no_scipy_module_is_loaded():
    # the package's linear algebra is numpy's; importing scipy.linalg alone
    # costs a fresh process about 0.3 s and 27 MB
    code = (
        "import sys\n"
        "import ajclab\n"
        "from ajclab import cohomlab\n"
        "def scipy_modules():\n"
        "    return sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "print(scipy_modules())\n"
        "g = ajclab.GridSpec(4)\n"
        "base = ajclab.gram_matrix(ajclab.standard_acs(g))\n"
        "print(cohomlab.intersection_dim(base, base),"
        " cohomlab.null_containment_angle(base, base))\n"
        "print(ajclab.elliptic_kernel_dim(ajclab.standard_acs(g), g).kernel_dim)\n"
        "print(scipy_modules())\n"
    )
    assert run_fresh(code) == ["0", "2", "0.0", "2", "0"]
