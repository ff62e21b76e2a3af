"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import treepolicy

PACKAGE = Path(treepolicy.__file__).parent


def imported_top_level(tree: ast.Module) -> set[str]:
    """The top-level module of every absolute import; a relative import is
    the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("treepolicy" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = imported_top_level(tree) - sys.stdlib_module_names - {"treepolicy"}
        assert not outside, (path.name, sorted(outside))


def test_a_third_party_import_is_caught():
    source = "import json\nfrom . import vpa\nfrom hypothesis import given\nimport numpy.linalg\n"
    found = imported_top_level(ast.parse(source))
    assert found == {"json", "treepolicy", "hypothesis", "numpy"}
    assert found - sys.stdlib_module_names - {"treepolicy"} == {"hypothesis", "numpy"}
