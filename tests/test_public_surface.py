"""Every public name, and every parameter of a public function, has a reader
outside the tests, or a stated reason to stay."""
import ast
import importlib
import inspect
import pkgutil
import re
import textwrap
import types
from pathlib import Path

import gexpect
from gexpect import claims, cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gexpect"
# The readers: the package modules but __init__.py, the demos, the benchmark
# and the acceptance suite.
MODULES = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
READERS = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]

# Defaulted parameters that no reader sets, or that every reader call sets,
# each with its reason to stay.
KEPT_DEFAULTS = {
    "penalization.solve_penalized.check":
        "the tests' one way into the certificate's violation path",
    "risk.custom.label": "names a measure built from a raw one-step operator in its reports",
    "risk.custom.bounds": "the domination bounds that represent reads of a custom source",
    "cli.main.argv": "None reads the command line, as the console script calls it",
}


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
    """The names that no reader reads and no import line of __init__.py keeps;
    a kept line ends in "# kept: <reason>"."""
    read = set().union(*(_read_names(p) for p in READERS))
    kept = dict(re.findall(r"^\s+(\w+),\s+# kept: (\S.*)$",
                           (PACKAGE / "__init__.py").read_text(), re.M))
    return [name for name in names if name not in read and name not in kept]


def test_every_export_is_read_or_kept_with_a_reason():
    unread = _unread(name for name in gexpect.__all__
                     if not isinstance(getattr(gexpect, name), types.ModuleType))
    assert not unread, f"exports with no reader and no '# kept:' reason: {unread}"


def _public_definitions() -> dict:
    """name -> (module.name, object) of every public module function and class."""
    defined = {}
    for info in pkgutil.iter_modules(gexpect.__path__):
        module = importlib.import_module(f"gexpect.{info.name}")
        defined |= {name: (f"{info.name}.{name}", obj) for name, obj in vars(module).items()
                    if not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__}
    return defined


def test_every_public_module_function_and_class_is_read_or_kept():
    # A name the package does not export is held to the same rule: one that
    # only the tests call belongs in tests/oracles.py.
    defined = _public_definitions()
    unread = [defined[name][0] for name in _unread(defined)]
    assert not unread, f"module names with no reader and no '# kept:' reason: {unread}"


def _signatures():
    """(qualified name, the name callers call it by, parameters, body) of every
    public module function and of every public method of a public class,
    ``__init__`` and the other dunders included, that has source; the
    parameters leave out a method's ``self``."""
    for name, (qualname, obj) in _public_definitions().items():
        members = [(name, qualname, obj, False)] if inspect.isfunction(obj) else [
            (name if attr == "__init__" else attr, f"{qualname}.{attr}", fn, True)
            for attr, fn in vars(obj).items()
            if inspect.isfunction(fn) and (not attr.startswith("_") or attr.endswith("__"))
            # a dataclass's generated methods are not in the class's file
            and inspect.getsourcefile(fn) == inspect.getsourcefile(obj)]
        for called_as, qual, fn, method in members:
            params = list(inspect.signature(fn).parameters.values())[method:]
            body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
            yield qual, called_as, params, body


def _calls() -> dict:
    """callee name -> (positions, keywords, direct) of every reader's calls to
    a name or an attribute.  A Starred argument counts as every position, and
    in the package a ** splat as every keyword ("**") and
    ``_library_defaults(fn, **kinds)`` as a call of fn by the keywords of
    ``kinds`` that is not direct: it reads their defaults."""
    calls = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = node.args
            names = {k.arg or "**" for k in node.keywords if k.arg or path in MODULES}
            direct = not (callee == "_library_defaults" and path in MODULES)
            if not direct:
                callee, args = args[0].id, []
            starred = any(isinstance(a, ast.Starred) for a in args)
            calls.setdefault(callee, []).append(
                (float("inf") if starred else len(args), names, direct))
    return calls


def test_every_parameter_is_read_and_every_default_is_set_or_kept():
    # A parameter that no body reads does nothing, and a default that no
    # reader sets is an option that only the tests use, or nobody.  A default
    # that every reader call sets, by position or by name, is one that no
    # caller relies on: the parameter is required.  Every parameter of a
    # builder of a command-line kind is a config key.
    calls = _calls()
    builders = {getattr(b, "func", b).__name__
                for b in (*cli._DRIVERS.values(), *claims.FAMILIES.values())}
    unread, unset, overridden = [], [], []
    for qual, called_as, params, body in _signatures():
        loads = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{qual}.{p.name}" for p in params if p.name not in loads]
        callers = calls.get(called_as, [])
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty or called_as in builders:
                continue
            if not any(positions > i or p.name in names or "**" in names
                       for positions, names, _ in callers):
                unset.append(f"{qual}.{p.name}")
            elif all(direct and (positions > i or p.name in names)
                     for positions, names, direct in callers):
                overridden.append(f"{qual}.{p.name}")
    assert not unread, f"parameters that no body reads: {unread}"
    assert sorted(unset + overridden) == sorted(KEPT_DEFAULTS), (
        f"defaulted parameters against the kept list: no reader sets {unset}, "
        f"every reader call sets {overridden}")
