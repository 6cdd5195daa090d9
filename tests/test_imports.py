"""Every import is used: a name that a module imports and never reads is a
dead line and a false dependency.  The package's ``__init__.py`` imports in
order to export, so it is left out."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """name -> line of every name bound by an import, ``__future__`` aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set:
    """Names the module reads, those inside string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "returns", None) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                      if isinstance(n, ast.Name)}
    return names


def test_the_scan_sees_the_tree():
    assert {p.parent.name for p in SOURCES} >= {"gexpect", "tests", "demos", "perfbench"}


def test_no_module_imports_a_name_it_does_not_read():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in read]
    assert not unused, f"unused imports: {unused}"
