"""Span tracing of the wdesign layers from outside the package.

Wrappers are installed on the public functions of each module *where the name
is looked up*: the modules import helpers such as ``eig_sym`` by name, so the
tracer rebinds every module attribute that is the original object, not only
the defining one.  Spans (name, start, end, parent, job) are kept in flat
arrays and written out when the run ends; self time is a span's duration
minus the part of it that its children cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: Certification kind -> the ``criteria`` function that runs it.
CERTIFICATIONS = {
    "theorem1": "certify_theorem1",
    "theorem2": "certify_theorem2",
    "theorem3": "certify_theorem3",
    "theorem4": "certify_theorem4",
    "aopt": "a_opt_interpretation_check",
    "eopt": "e_opt_interpretation_check",
}

#: (module, function) pairs wrapped wherever the function object is bound.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "load_problem"),
    ("cli", "cmd_search"),
    ("cli", "cmd_certify"),
    ("search", "label_symmetric"),
    ("search", "enumerate_optimal"),
    ("search", "exchange_search"),
    ("linalg", "eig_sym"),
    ("linalg", "pinv"),
    ("linalg", "projector"),
    ("linalg", "symmetrized"),
    ("model", "information_matrix"),
    ("model", "infeasible_columns"),
    ("estimable", "info_matrix_for_system"),
    ("weighting", "weighted_info_matrix"),
    ("weighting", "weighted_variance"),
    ("weighting", "make_weight_matrix"),
    ("instances", "random_instance"),
) + tuple(("criteria", fn) for fn in CERTIFICATIONS.values())

#: (module, class) pairs whose ``__init__`` is wrapped on the class.
CONSTRUCTORS = (("linalg", "SymMatrix"), ("search", "SearchProblem"))

#: Span name of the scorer closures that ``search.make_evaluator`` returns.
EVALUATE = "search.evaluate"


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wdesign" or name.startswith("wdesign."))]


class Tracer:
    """Records nested spans of wrapped calls; ``install``/``uninstall`` patch the package."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: (job, key) -> value tallied from return values of wrapped calls.
        self.tally: dict[tuple[int, str], float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span named ``name``; ``on_result`` sees each return value."""
        nid = self._id(name)
        stack = self._stack
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.tally[(self.job_id, key)] += amount

    def _keep_max(self, key: str, value: float) -> None:
        slot = (self.job_id, key)
        self.tally[slot] = max(self.tally.get(slot, 0.0), float(value))

    def _hooks(self) -> dict:
        hooks = {
            "search.enumerate_optimal":
                lambda r: self._count("search.ties", len(r.optimal_assignments)),
            "instances.random_instance": lambda r: self._count("instances.returned"),
        }
        for kind, fn in CERTIFICATIONS.items():
            key = f"criteria.max_deviation.{kind}"
            hooks[f"criteria.{fn}"] = lambda r, key=key: self._keep_max(key, r.deviation)
        return hooks

    def _make_evaluator(self, original):
        def on_score(scored):
            if scored is None:
                self._count("search.infeasible")

        def make_evaluator(problem):
            return self.wrap(EVALUATE, original(problem), on_score)

        return self.wrap("search.make_evaluator", make_evaluator)

    def install(self) -> None:
        """Patch every binding of the traced functions in the loaded wdesign modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import wdesign.search  # noqa: F401  (loads every module of the package)

        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        hooks = self._hooks()
        replacements = {}
        for mod, fn in FUNCTIONS:
            original = getattr(by_name[f"wdesign.{mod}"], fn)
            span = f"{mod}.{fn}"
            replacements[id(original)] = (original, self.wrap(span, original, hooks.get(span)))
        original = by_name["wdesign.search"].make_evaluator
        replacements[id(original)] = (original, self._make_evaluator(original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name in CONSTRUCTORS:
            cls = getattr(by_name[f"wdesign.{mod}"], cls_name)
            original = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self.wrap(f"{mod}.{cls_name}", original)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus child coverage; children nest inside their parent's interval."""
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=parent.size)
    return duration - covered


def descends_from(name: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` among their ancestors."""
    inside = np.zeros(name.size, dtype=bool)
    nested = parent >= 0
    while True:
        hit = np.zeros(name.size, dtype=bool)
        hit[nested] = (name[parent[nested]] == ancestor) | inside[parent[nested]]
        if np.array_equal(hit, inside):
            return inside
        inside = hit
