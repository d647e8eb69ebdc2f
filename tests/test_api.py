"""The public surface: what ``wdesign.__all__`` exports and how it is called."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import wdesign
from wdesign import linalg

#: Parameter names of per-call tolerance knobs.  Every tolerance is a named
#: module constant, applied the same way at each call.
KNOBS = {"rtol", "tol", "trials"}


def public_callables():
    """``(name, function)`` of each exported function and each public method
    (and constructor) of each exported class."""
    for name in wdesign.__all__:
        obj = getattr(wdesign, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def test_no_public_function_takes_a_tolerance_knob():
    walked = dict(public_callables())
    assert {"make_weight_matrix", "EstimationSpace.contains", "WeightMatrix.in_span",
            "DesignSpec.from_replications", "SymMatrix.__init__"} <= set(walked)
    knobs = {name: sorted(KNOBS & set(inspect.signature(fn).parameters))
             for name, fn in walked.items()}
    assert {name: found for name, found in knobs.items() if found} == {}


def test_only_the_symmatrix_constructor_takes_a_rank_cutoff():
    # every other matrix is cut at DERIVED_RANK_RTOL; the CLI gives typed ones their own
    takers = {name for name, fn in public_callables()
              if "tol_rank" in inspect.signature(fn).parameters}
    assert takers == {"SymMatrix.__init__"}
    for fn in (linalg.as_sym, linalg.symmetrized):
        assert "tol_rank" not in inspect.signature(fn).parameters


def dotted_references():
    """``(where, module, attributes)`` of each `` `module.name` `` in the
    README and each ````module.name```` in a docstring of the package,
    ``module`` a module of ``wdesign``."""
    package = Path(wdesign.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    name = r"({})((?:\.\w+)+)".format("|".join(modules))
    readme = package.parents[1] / "README.md"
    for match in re.finditer(rf"(?<!`)`{name}`(?!`)", readme.read_text()):
        yield "README.md", match[1], match[2][1:].split(".")
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for match in re.finditer(rf"``{name}``", ast.get_docstring(node) or ""):
                    yield path.name, match[1], match[2][1:].split(".")


def test_documented_names_resolve():
    # a deletion that leaves a README or docstring reference behind fails here
    refs = list(dotted_references())
    assert {where for where, _, _ in refs} >= {"README.md", "search.py"}
    stale = []
    for where, module, attributes in refs:
        obj = importlib.import_module(f"wdesign.{module}")
        for attribute in attributes:
            obj = getattr(obj, attribute, None)
        if obj is None:
            stale.append(f"{where}: {module}.{'.'.join(attributes)}")
    assert stale == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_check_sees_an_unused_name():
    source = "import math\nfrom os import path, sep\nfrom __future__ import annotations\nsep\n"
    assert unused_imports(source) == ["math", "path"]


def test_no_module_imports_a_name_it_does_not_use():
    # ``__init__`` imports to re-export, so it is left out
    package = Path(wdesign.__file__).parent
    unused = {path.name: found for path in sorted(package.glob("*.py"))
              if path.stem != "__init__" and (found := unused_imports(path.read_text()))}
    assert unused == {}


def small_float_literals(source: str) -> list[int]:
    """Lines of the float literals in ``(0, 0.1)`` that sit outside a
    module-level assignment, where a tolerance gets its name."""
    tree = ast.parse(source)
    named = {id(node) for statement in tree.body
             if isinstance(statement, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(statement)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < node.value < 0.1 and id(node) not in named)


def test_small_float_literal_check_sees_an_unnamed_tolerance():
    source = "TOL = 1e-8\n\ndef f(x):\n    return x > 1e-6 * TOL + 0.5\n"
    assert small_float_literals(source) == [4]


def test_every_small_float_literal_is_a_named_constant():
    # a tolerance written inline escapes the README list and the scale audit
    package = Path(wdesign.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := small_float_literals(path.read_text()))}
    assert found == {}
