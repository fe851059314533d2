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
