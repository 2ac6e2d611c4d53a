"""Print the size of the library: src/ line count, each module's line count
and the defaulted public parameters.

Usage: python tools/src_size.py [SRC_DIR]   (default: src/ beside this folder)

A defaulted public parameter is a parameter with a default value, positional
or keyword-only, of a function or method whose name does not start with
"_" (so private helpers and dunders such as __init__ are not counted).
Nested functions count like any other; lambdas have no name and do not.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def defaulted_public_parameters(tree: ast.AST) -> list[str]:
    """'function:parameter' for every defaulted parameter of a public function."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
        with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [f"{node.name}:{a.arg}" for a in with_default]
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    per_module, params = {}, []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        per_module[path.relative_to(src).as_posix()] = len(text.splitlines())
        params += defaulted_public_parameters(ast.parse(text, filename=str(path)))
    print(f"src lines: {sum(per_module.values())}")
    print(f"defaulted public parameters: {len(params)}")
    for name, lines in per_module.items():
        print(f"  {lines:6d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
