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
KNOBS = {"rtol", "tol", "tol_rank", "trials"}


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


def test_no_matrix_constructor_takes_a_rank_cutoff():
    # every decomposition is cut at DERIVED_RANK_RTOL, but that of ``linalg.typed``
    for fn in (linalg.as_sym, linalg.symmetrized, linalg.typed, linalg.SymMatrix._trusted,
               linalg.SymStack.__init__, linalg.SymStack.of):
        assert "tol_rank" not in inspect.signature(fn).parameters
    assert "tol_rank" not in linalg.SymMatrix.__slots__ + linalg.SymStack.__slots__


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


def named_tolerances(module: str, source: str) -> dict[str, float]:
    """``module.NAME -> value`` of each module-level name bound to a float
    literal in ``(0, 0.1)``: the named tolerances ``small_float_literals``
    leaves alone."""
    found = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        value = statement.value
        if (isinstance(value, ast.Constant) and isinstance(value.value, float)
                and 0.0 < value.value < 0.1):
            found.update({f"{module}.{target.id}": value.value
                          for target in targets if isinstance(target, ast.Name)})
    return found


def readme_tolerances(readme: str) -> dict[str, str | None]:
    """``module.NAME -> value`` of each `` `module.NAME` `` in the README's
    "Tolerances" section, the value being the text in the parentheses that
    follow it (None when none do)."""
    section = readme.split("### Tolerances\n", 1)[1].split("\n#", 1)[0]
    return {match[1]: match[2] for match in
            re.finditer(r"`(\w+\.[A-Z][A-Z0-9_]*)`(?:\s*\(([^)]*)\))?", section)}


def test_tolerance_lists_see_names_and_values():
    source = ("TOL: float = 1e-8\nWIDE = 0.5\nEPS = float(1e-16)\nA = B = 1e-3\n"
              "def f():\n    LOCAL = 1e-6\n")
    assert named_tolerances("m", source) == {"m.TOL": 1e-8, "m.A": 1e-3, "m.B": 1e-3}
    readme = ("`m.X` (1)\n### Tolerances\n\nSee `m.span` and `TOL`.\n\n- `m.TOL` (1e-8): x\n"
              "- `m.A` (1e-3) and `m.B`\n  (0.001): y\n- `m.C`: z\n\n### Next\n- `m.D` (1)\n")
    assert readme_tolerances(readme) == {"m.TOL": "1e-8", "m.A": "1e-3", "m.B": "0.001",
                                         "m.C": None}


def test_the_readme_lists_every_named_tolerance_with_its_value():
    # a tolerance that is added, moved or retuned without the README fails here
    package = Path(wdesign.__file__).parent
    source = {}
    for path in sorted(package.glob("*.py")):
        source.update(named_tolerances(path.stem, path.read_text()))
    listed = readme_tolerances((package.parents[1] / "README.md").read_text())
    assert len(source) >= 13
    assert {name: value and float(value) for name, value in listed.items()} == source
