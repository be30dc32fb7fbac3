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


def test_import_does_not_load_scipy_fft():
    # importing scipy.fft adds about 0.1 s to every fresh process; the
    # elliptic oracle's transforms are numpy.fft's too
    src = Path(ajclab.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    code = (
        "import ajclab, sys; print('scipy.fft' in sys.modules); "
        "g = ajclab.GridSpec(4); "
        "print(ajclab.elliptic_kernel_dim(ajclab.standard_acs(g), g).kernel_dim); "
        "print('scipy.fft' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "2", "False"]
