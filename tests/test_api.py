"""The public surface: what ``wdesign.__all__`` exports and how it is called."""

import inspect

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
