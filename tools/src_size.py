"""Print the code-size gate of ``src/ajclab``: its lines, its AST statements
and its defaulted parameters.

Lines are those of ``cat src/ajclab/*.py | wc -l``.  Statements are the
``ast.stmt`` nodes ``ast.walk`` finds.  Defaulted parameters are the
positional parameters with a default plus the keyword-only parameters with
a default, over every function and lambda.

Usage: ``python3 tools/src_size.py [package_dir]``
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def src_size(package: Path) -> dict[str, int]:
    lines = statements = defaulted = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            statements += isinstance(node, ast.stmt)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                defaulted += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return {"lines": lines, "statements": statements, "defaulted_parameters": defaulted}


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent / "src/ajclab"
    for key, value in src_size(root).items():
        print(f"{key} {value}")
