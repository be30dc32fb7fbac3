import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "src_size.py"
_spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)


def write_package(root: Path) -> Path:
    """Two modules with known counts, and a file that is not a module."""
    root.mkdir()
    # 2 lines; a def and a return; y and z have defaults, w has none
    (root / "a.py").write_text("def f(x, y=1, *, z=2, w):\n    return x\n")
    # 4 lines; three assignments and an if; the lambda's q has a default
    (root / "b.py").write_text("g = lambda p, q=3: p + q\nx = 1\nif x:\n    x = 2\n")
    (root / "notes.txt").write_text("def h(k=0):\n    pass\n")
    return root


def test_counts_lines_statements_and_defaulted_parameters(tmp_path):
    package = write_package(tmp_path / "pkg")
    assert src_size.src_size(package) == {"lines": 6, "statements": 6, "defaulted_parameters": 3}


def test_prints_one_key_value_line_per_count(tmp_path):
    package = write_package(tmp_path / "pkg")
    out = subprocess.run([sys.executable, str(TOOL), str(package)], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["lines 6", "statements 6", "defaulted_parameters 3"]
