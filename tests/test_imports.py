"""Every module of the package uses each name it imports, every private
function reads each of its parameters, every function reads each local it
assigns, every module is imported, directly or through others, by a driver
module, every private function is called by the package, and every public
definition is used by the package or the benchmark, not only by the tests,
every ``raise`` names an exception class of ``errors.py`` or re-raises, and
every private name or cross-reference a docstring or comment quotes is
defined in the package."""

import ast
import importlib
import re
from pathlib import Path

import minionlab

PACKAGE = Path(minionlab.__file__).parent
BENCHMARK = PACKAGE.parent.parent / "minionbench"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation such as -> "Signature" names a class inside a string
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nfrom typing import Any\n" \
             "def f(x: 'Any') -> None:\n    return loads('os')\n"
    assert unused_imports(source) == ["os (line 1)", "dumps (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def unread_parameters(source: str) -> list[str]:
    """Parameters of private functions (one leading underscore) never read in the body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({name}) (line {node.lineno})"
                  for name in params if name not in read]
    return found


def test_guard_sees_an_unread_parameter():
    source = "def _f(a, b, *rest, c=1):\n    del b\n    return a + c\n" \
             "def g(unused):\n    return 0\n" \
             "def __init__(self, unused):\n    pass\n"
    assert unread_parameters(source) == ["_f(b) (line 1)", "_f(rest) (line 1)"]


def test_no_private_function_ignores_a_parameter():
    found = {
        path.name: unread
        for path in sorted(PACKAGE.glob("*.py"))
        if (unread := unread_parameters(path.read_text()))
    }
    assert found == {}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unread_locals(source: str) -> list[str]:
    """Names a function binds by a plain assignment and never reads.

    A read inside a nested function counts, since a closure reads the
    enclosing function's locals; a name declared ``nonlocal`` or ``global``
    is not a local.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, todo = [], list(ast.iter_child_nodes(node))
        while todo:  # the function's own scope, without nested scopes
            child = todo.pop()
            own.append(child)
            if not isinstance(child, SCOPES):
                todo.extend(ast.iter_child_nodes(child))
        shared = {name for n in own if isinstance(n, (ast.Nonlocal, ast.Global))
                  for name in n.names}
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bound = {(t.lineno, t.id) for n in own if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)}
        found += [f"{node.name}.{name} (line {line})" for line, name in sorted(bound)
                  if name not in read and name not in shared]
    return found


def test_guard_sees_an_unread_local():
    source = ("def f(a):\n"
              "    unused = 1\n"
              "    seen = set()\n"
              "    total = 0\n"
              "    x, y = a\n"
              "    def g():\n"
              "        nonlocal total\n"
              "        total = len(seen)\n"
              "        inner = 2\n"
              "    g()\n"
              "    return total\n")
    assert unread_locals(source) == ["f.unused (line 2)", "g.inner (line 9)"]


def test_no_function_assigns_a_local_it_never_reads():
    found = {
        path.name: unread
        for path in sorted(PACKAGE.glob("*.py"))
        if (unread := unread_locals(path.read_text()))
    }
    assert found == {}


DRIVERS = ("hierarchies", "free_structures")


def reached_modules(sources: dict[str, str], roots) -> set[str]:
    """Modules reached from ``roots`` by following ``from .m import ...`` statements."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse(sources[name])):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                todo.append(node.module)
    return reached


def test_guard_sees_an_orphan_module():
    sources = {"drive": "from .solve import run\n", "solve": "from .util import f\n",
               "util": "", "orphan": "from .util import f\n"}
    assert set(sources) - reached_modules(sources, ["drive"]) == {"orphan"}


def test_every_module_is_reached_from_a_driver():
    sources = {path.stem: path.read_text()
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    assert set(sources) - reached_modules(sources, DRIVERS) == set()


def unnamed_definitions(sources: dict[str, str], others: list[str]) -> list[str]:
    """Public top-level functions and classes that nothing outside the tests names.

    A definition counts as used when its name appears as a whole word in its
    own module outside the definition, in another module of ``sources``, or
    in one of ``others``.  A definition decorated with ``@driver`` is an entry
    point and counts as used.
    """
    found = []
    for module, text in sources.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if any(isinstance(d, ast.Name) and d.id == "driver" for d in node.decorator_list):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            texts = [rest] + [t for m, t in sources.items() if m != module] + others
            if not any(re.search(rf"\b{node.name}\b", t) for t in texts):
                found.append(f"{module}.{node.name}")
    return found


def test_guard_sees_test_only_code():
    sources = {"solve": "def run():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
                        "def only_tests():\n    return 2\n\n\n"
                        "def recurse(n):\n    return recurse(n - 1)\n\n\n"
                        "@driver\ndef entry(X, A):\n    return 3\n",
               "bench": "from solve import run\n"}
    assert unnamed_definitions(sources, []) == ["solve.only_tests", "solve.recurse"]
    assert unnamed_definitions(sources, ["only_tests()"]) == ["solve.recurse"]


def test_no_public_definition_is_used_only_by_tests():
    # __init__.py re-exports every public name, so it would count each as used
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    others = [path.read_text() for path in sorted(BENCHMARK.glob("*.py"))]
    assert unnamed_definitions(sources, others) == []


def uncalled_private_functions(sources: dict[str, str]) -> list[str]:
    """Private functions and methods (one leading underscore) that no code
    outside their own body calls, by plain name or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    callees = [(getattr(node.func, "id", None) or getattr(node.func, "attr", None), node)
               for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and id(call) not in inside for name, call in callees):
                found.append(f"{module}.{node.name}")
    return found


def test_guard_sees_an_uncalled_private_function():
    sources = {"solve": "def _used():\n    return 1\n\n\n"
                        "def _unused():\n    return _used()\n\n\n"
                        "def _recurse(n):\n    return _recurse(n - 1)\n\n\n"
                        "def public():\n    return 0\n\n\n"
                        "class C:\n    def __init__(self):\n        self._step()\n\n"
                        "    def _step(self):\n        return 2\n\n"
                        "    def _orphan(self):\n        return 3\n",
               "run": "from solve import _helper\n_helper()\n",
               "util": "def _helper():\n    return 4\n"}
    assert uncalled_private_functions(sources) == \
        ["solve._unused", "solve._recurse", "solve._orphan"]


def test_every_private_function_is_called_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_private_functions(sources) == []


def untyped_raises(source: str, typed: set[str]) -> list[str]:
    """``raise`` statements whose exception is not a class named in ``typed``.

    A bare ``raise`` re-raises the exception being handled and is left alone.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in typed):
                found.append(f"{ast.unparse(exc)} (line {node.lineno})")
    return found


def test_guard_sees_an_untyped_raise():
    source = ("def f(x):\n"
              "    if x is None:\n"
              "        raise MalformedInput('no x')\n"
              "    try:\n"
              "        return 1 / x\n"
              "    except ZeroDivisionError as exc:\n"
              "        raise ArityMismatch from exc\n"
              "    except TypeError:\n"
              "        raise\n"
              "    raise ValueError('untyped')\n"
              "def g():\n"
              "    raise errors.MalformedInput('through a module')\n")
    assert untyped_raises(source, {"MalformedInput", "ArityMismatch"}) == \
        ["ValueError (line 10)", "errors.MalformedInput (line 12)"]


def test_every_raise_names_an_error_of_the_package():
    # the benchmark counts a MinionLabError as a failed query; any other
    # exception ends its run
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    typed = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    found = {
        path.name: untyped
        for path in sorted(PACKAGE.glob("*.py"))
        if (untyped := untyped_raises(path.read_text(), typed))
    }
    assert found == {}


QUOTED = re.compile(r"``(_\w+)``|:(?:func|class|meth):`~?([\w.]+)`")


def stale_names(sources: dict[str, str]) -> list[str]:
    """Double-backticked ``_private`` names, and :func:, :class: or :meth:
    targets, that name no definition in ``sources``: a def, a class, or an
    assigned name or attribute.  A dotted target is read by its last part."""
    defined = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    found = []
    for module, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in QUOTED.finditer(line):
                name = match[1] or match[2].rsplit(".", 1)[-1]
                if name not in defined:
                    found.append(f"{module}.{name} (line {lineno})")
    return found


def test_guard_sees_a_stale_name():
    sources = {"solve": 'def _run():\n'
                        '    """Calls ``_step`` and ``_gone``; see :func:`helper`\n'
                        '    and :class:`~pkg.shapes.Shape`."""\n\n\n'
                        'def _step():\n    return 1\n',
               "shapes": 'class Shape:\n'
                         '    """Sets ``_cache``; :meth:`Shape.area`, :func:`vanished`."""\n\n'
                         '    def __init__(self):\n        self._cache = {}\n\n'
                         '    def area(self):\n        return 0\n\n\n'
                         'LIMIT = 3  # was ``_LIMIT``\n'}
    assert stale_names(sources) == ["solve._gone (line 2)", "solve.helper (line 2)",
                                    "shapes.vanished (line 2)", "shapes._LIMIT (line 11)"]


def test_every_quoted_name_is_defined_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert stale_names(sources) == []


def test_the_benchmark_loads_and_patches_names_the_package_has(monkeypatch):
    # measure, verify and spans import names of the package, and spans replaces
    # some of them while it traces: a renamed name fails here, not first when the
    # benchmark runs, and every replaced name is the original again afterwards
    monkeypatch.syspath_prepend(str(BENCHMARK))
    for name in ("measure", "verify"):
        importlib.import_module(name)
    spans = importlib.import_module("spans")
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, *_ in spans.PATCHES + spans.COUNTED}
    with spans.patched(spans.SpanRecorder()):
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in originals.items())
    assert all(owner.__dict__[attr] is original for (owner, attr), original in originals.items())
