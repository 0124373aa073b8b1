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


def package_imports(source):
    """The package modules that the imports of ``source``, a package module, name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nnlslab")):
            module = (node.module or "").removeprefix("nnlslab").lstrip(".")
            out |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("nnlslab.")}
    return out


def test_package_imports_are_found():
    source = ("from . import grid\nfrom .spaces import dilate\nimport nnlslab.gauge\n"
              "from nnlslab.cli import main\nimport numpy\n")
    assert package_imports(source) == {"grid", "spaces", "gauge", "cli"}


def test_evolve_steps_states_without_the_norms():
    # the stepper records states only; the code that reports mass, energy,
    # leakage and norms computes them, so evolve needs no spaces or cli
    path = os.path.join(os.path.dirname(nnlslab.__file__), "evolve.py")
    with open(path) as fh:
        assert package_imports(fh.read()) <= {"equations", "grid"}


def test_only_equations_knows_how_n_of_u_is_evaluated():
    # the recipe format, the padding and the product plans stay behind
    # equations: the stepper imports its evaluator, not the pieces of one
    path = os.path.join(os.path.dirname(nnlslab.__file__), "evolve.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not names & {"_recipe", "DU", "product_plan", "derivative_symbol", "scipy.fft"}


def test_the_lawson_stage_is_built_in_stream_alone():
    # one stepping loop: solve_batch and the CLI collect or write its events
    path = os.path.join(os.path.dirname(nnlslab.__file__), "evolve.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    builders = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "_LawsonStage"}
    assert builders == {"stream"}


def test_only_equations_calls_the_product_plans_products():
    # the gauge reads a plan's samples and coeffs; products serves N(u) alone
    callers = []
    for path in MODULES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "products" for node in ast.walk(tree)):
            callers.append(os.path.basename(path))
    assert callers == ["equations.py"]


def private_imports(source):
    """The underscore names that ``source``, a package module, imports from another package
    module, as (module, name) pairs."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nnlslab")):
            module = (node.module or "").removeprefix("nnlslab").lstrip(".")
            out |= {(module, alias.name) for alias in node.names if alias.name.startswith("_")}
    return out


def test_private_imports_are_found():
    source = ("from .spaces import _weights, dilate\nfrom nnlslab.grid import _x as y\n"
              "from numpy import _core\n")
    assert private_imports(source) == {("spaces", "_weights"), ("grid", "_x")}


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_module_imports_a_private_name_of_another(path):
    # a name another module needs is public, or the code that needs it moves;
    # the stepper's N(u) evaluator is the one listed exception
    allowed = {"evolve.py": {("equations", "_Nonlinearity")}}
    with open(path) as fh:
        found = private_imports(fh.read())
    assert found <= allowed.get(os.path.basename(path), set())


KERNEL = "scipy.fft._pocketfft.pypocketfft"
ALLOWED = (KERNEL + ".c2c", KERNEL + ".good_size")  # the one transform and its size query


def transform_calls(source):
    """The calls in ``source`` of a ``numpy.fft`` or ``scipy.fft`` function other than
    those in ``ALLOWED``, as (line, dotted name), import aliases resolved.  The name
    ``pypocketfft`` is the kernel unless an import binds it otherwise: ``grid`` loads
    it under that name and the other modules import it from ``grid``."""
    tree = ast.parse(source)
    bound = {"pypocketfft": KERNEL}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module + "." + alias.name

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and base + "." + node.attr
        return None

    calls = []
    for node in ast.walk(tree):
        name = dotted(node.func) if isinstance(node, ast.Call) else None
        if (name and name.startswith(("numpy.fft.", "scipy.fft."))
                and name not in ALLOWED):
            calls.append((node.lineno, name))
    return sorted(calls)


def test_transform_calls_are_found():
    source = ("import numpy as np\nimport scipy.fft\nfrom scipy import fft as sf\n"
              "from numpy.fft import ifft\nfrom scipy.fft._pocketfft import pypocketfft\n"
              "a = np.fft.fftfreq(8)\nb = scipy.fft.fft(a)\nc = sf.ifft(b)\nd = ifft(c)\n"
              "e = scipy.fft.next_fast_len(9)\nf = pypocketfft.c2c(a, (-1,), True, 0, None, 1)\n"
              "g = pypocketfft.good_size(9, False)\n")
    assert transform_calls(source) == [(6, "numpy.fft.fftfreq"), (7, "scipy.fft.fft"),
                                       (8, "scipy.fft.ifft"), (9, "numpy.fft.ifft"),
                                       (10, "scipy.fft.next_fast_len")]
    source = "from .grid import pypocketfft\nb = pypocketfft.r2c(a, (-1,), True, 0, None, 1)\n"
    assert transform_calls(source) == [(2, KERNEL + ".r2c")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_transform_goes_through_the_one_binding(path):
    # the package transforms only through pypocketfft.c2c, which a test or a
    # profiler rebinds to see every call
    with open(path) as fh:
        assert transform_calls(fh.read()) == []
