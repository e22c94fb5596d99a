"""The package's runtime imports are standard library only, and only
formulas.py runs source text (eval, exec or compile)."""

import ast
import pathlib
import sys

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "xyzspectra"


def test_runtime_imports_are_standard_library_and_only_formulas_runs_source_text():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, SOURCE
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("eval", "exec", "compile") and path.name != "formulas.py"):
                bad.append(f"{path}:{node.lineno}: calls {node.func.id}")
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "xyzspectra":
                    bad.append(f"{path}:{node.lineno}: imports {name}")
    assert not bad, "\n".join(bad)
