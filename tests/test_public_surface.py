"""Every public name has a reader outside the tests, or a stated reason to stay."""
import ast
import importlib
import inspect
import pkgutil
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


def _unread(names) -> list:
    """The names that no reader reads and no import line of __init__.py keeps:
    readers are the package modules but __init__.py, the demos, the benchmark
    and the acceptance suite; a kept line ends in "# kept: <reason>"."""
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(_read_names(p) for p in readers))
    kept = dict(re.findall(r"^\s+(\w+),\s+# kept: (\S.*)$",
                           (PACKAGE / "__init__.py").read_text(), re.M))
    return [name for name in names if name not in read and name not in kept]


def test_every_export_is_read_or_kept_with_a_reason():
    unread = _unread(name for name in gexpect.__all__
                     if not isinstance(getattr(gexpect, name), types.ModuleType))
    assert not unread, f"exports with no reader and no '# kept:' reason: {unread}"


def test_every_public_module_function_and_class_is_read_or_kept():
    # A name the package does not export is held to the same rule: one that
    # only the tests call belongs in tests/oracles.py.
    defined = {}  # name -> module.name
    for info in pkgutil.iter_modules(gexpect.__path__):
        module = importlib.import_module(f"gexpect.{info.name}")
        defined |= {name: f"{info.name}.{name}" for name, obj in vars(module).items()
                    if not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__}
    unread = [defined[name] for name in _unread(defined)]
    assert not unread, f"module names with no reader and no '# kept:' reason: {unread}"
