"""reducto imports nothing outside the standard library."""

import ast
import pathlib
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
