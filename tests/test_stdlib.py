"""reducto uses only the standard library and parses as its oldest supported Python."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import reducto

SOURCES = sorted(pathlib.Path(reducto.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """The top-level package of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_stdlib():
    assert {p.name for p in SOURCES} >= {"core.py", "sat.py", "cli.py"}
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


def oldest_supported_python():
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject.read_text(), re.M)
    assert found, "pyproject.toml names no lower Python bound"
    return int(found[1]), int(found[2])


def test_every_module_parses_as_the_oldest_supported_python():
    version = oldest_supported_python()
    assert version == (3, 10)
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=version)


def unused_imports(path):
    """The names the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export.
    unused = {
        (path.name, name)
        for path in SOURCES
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert not unused, sorted(unused)


def module_level_names(tree):
    """The functions, classes and assigned names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def names_read(tree):
    """Every name the module reads: as a name, an attribute, or an imported (re-exported) name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_module_level_definition_is_read_somewhere():
    # Foldings leave definitions behind that nothing reads any more; the
    # package's modules and the tests are where a reader could be.
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + tests}
    read = {name for tree in trees.values() for name in names_read(tree)}
    orphans = {
        (path.name, name)
        for path in SOURCES
        if path.name != "__init__.py"
        for name in module_level_names(trees[path])
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    }
    assert not orphans, sorted(orphans)


def test_import_and_every_setup_leave_subprocess_unloaded():
    # Every solve is a fresh process, so what import reducto loads is paid
    # per solve; only an external portfolio member's child process needs it.
    src = os.path.dirname(os.path.dirname(reducto.__file__))
    code = (
        "import sys, reducto\n"
        "from reducto.driver import SETUP_NAMES, make_setup\n"
        "for name in SETUP_NAMES: make_setup(name)\n"
        "print('subprocess' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "False"


def dataclass_decorated(tree):
    """The names of the classes in ``tree`` that ``@dataclass`` decorates, called or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name == "dataclass":
                    yield node.name


def test_self_reduction_is_the_only_dataclass():
    # @dataclass writes each class's methods as source and execs it at every
    # import; records are NamedTuples or slotted classes instead.
    found = {
        (path.name, name)
        for path in SOURCES
        for name in dataclass_decorated(ast.parse(path.read_text(), str(path)))
    }
    assert found == {("core.py", "SelfReduction")}, (
        "only SelfReduction may be a dataclass: the benchmark's traced runs "
        "rebuild each rule with dataclasses.replace",
        sorted(found),
    )


def _is_named(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def unbounded_memos(source):
    """The line of every memo in ``source`` that has no literal, finite bound.

    An ``lru_cache`` must be called with a ``maxsize`` that is an int literal
    or a module-level name assigned one; ``functools.cache`` has no bound.
    """
    tree = ast.parse(source)
    ints = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def finite(size):
        value = size.value if isinstance(size, ast.Constant) else None
        if isinstance(size, ast.Name):
            value = ints.get(size.id)
        return type(value) is int and value >= 0

    called = set()
    # ast.walk visits a call before its func, so ``called`` is filled in time.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_named(node.func, "lru_cache"):
            called.add(node.func)
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if not sizes or not finite(sizes[0]):
                yield node.lineno
        elif _is_named(node, "lru_cache") and node not in called:
            yield node.lineno  # a bare @lru_cache: 128 entries, set by nothing here
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and _is_named(node.value, "functools"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno


def test_unbounded_memos_are_found():
    flagged = [
        "from functools import lru_cache\n@lru_cache\ndef f(x): return x\n",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): return x\n",
        "from functools import lru_cache\n@lru_cache(None)\ndef f(x): return x\n",
        "from functools import lru_cache\nN = 2 * 8\n@lru_cache(maxsize=N)\ndef f(x): return x\n",
        "import functools\n@functools.lru_cache()\ndef f(x): return x\n",
        "import functools\n@functools.cache\ndef f(x): return x\n",
        "from functools import cache\n@cache\ndef f(x): return x\n",
        "from functools import lru_cache\ng = lru_cache(maxsize=True)(len)\n",
    ]
    for source in flagged:
        assert list(unbounded_memos(source)), source
    bounded = [
        "from functools import lru_cache\n@lru_cache(maxsize=1)\ndef f(x): return x\n",
        "from functools import lru_cache\nN = 16\ng = lru_cache(maxsize=N)(len)\n",
        "import functools\n@functools.lru_cache(4)\ndef f(x): return x\n",
    ]
    for source in bounded:
        assert not list(unbounded_memos(source)), source


def test_every_memo_is_bounded():
    # Memos live as long as the process, and bench and selfcheck solve
    # thousands of formulas in one; an unbounded one would keep every one.
    assert sum(path.read_text().count("lru_cache(") for path in SOURCES) >= 4
    unbounded = {
        (path.name, line) for path in SOURCES for line in unbounded_memos(path.read_text())
    }
    assert not unbounded, sorted(unbounded)
