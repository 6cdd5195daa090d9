"""Every public name has a reader outside the tests, or a stated reason to stay."""
import ast
import re
import types
from pathlib import Path

import gexpect

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gexpect"


def _read_names(path: Path) -> set:
    """Names a file reads: loaded names and attribute names.  The benchmark
    tracer addresses library functions by string, so in ``perfbench/`` an
    identifier-shaped string literal counts as a read too."""
    strings = path.parent.name == "perfbench"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_export_is_read_or_kept_with_a_reason():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(_read_names(p) for p in readers))
    # An import line of __init__.py ending in "# kept: <reason>".
    kept = dict(re.findall(r"^\s+(\w+),\s+# kept: (\S.*)$",
                           (PACKAGE / "__init__.py").read_text(), re.M))
    unread = [name for name in gexpect.__all__
              if not isinstance(getattr(gexpect, name), types.ModuleType)
              and name not in read and name not in kept]
    assert not unread, f"exports with no reader and no '# kept:' reason: {unread}"
