"""Static checks of the package and test sources."""

import ast
import glob
import os

import pytest

import nnlslab

MODULES = sorted(glob.glob(os.path.join(os.path.dirname(nnlslab.__file__), "*.py")))
TESTS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")))


def unused_imports(source):
    """Names bound by an import statement of ``source`` and never read in it."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy.fft\nfrom math import pi, tau as t\nx = numpy.fft.fft(pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "t")]


@pytest.mark.parametrize("path", [p for p in MODULES if not p.endswith("__init__.py")] + TESTS,
                         ids=os.path.basename)
def test_no_unused_import(path):
    # the package __init__ imports to re-export, so it is left out
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
