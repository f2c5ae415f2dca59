"""Span recorder for the traced benchmark runs.

`Tracer.install()` wraps the public kappahopf functions listed in `TARGETS`.
A function imported by name into several modules (for example
`hopf.coproduct`, bound again in `crossproduct`, `grammar` and the package
namespace) is replaced in every kappahopf module that binds it; methods are
replaced on their class.  Span functions record (name, start, end, parent
span) in flat arrays kept in memory; counter functions only count calls,
because timing every scalar operation would swamp the run.  `stats()` turns
the spans into calls, total time and self time per function at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

SPAN = "span"
COUNT = "count"

# (module, attribute, kind); the metric name is "<module>.<attribute>" with
# dunder method names shortened ("Scalar.__mul__" -> "Scalar.mul").
TARGETS = (
    ("scalars", "Scalar.__mul__", COUNT),
    ("scalars", "Scalar.__add__", COUNT),
    ("elements", "Element.__add__", COUNT),
    ("presets", "get_preset", SPAN),
    ("presets", "AlgebraPreset.multiply", SPAN),
    ("presets", "AlgebraPreset.normal_form", SPAN),
    ("presets", "AlgebraPreset.commutator", SPAN),
    ("hopf", "coproduct", SPAN),
    ("hopf", "tensor_multiply", SPAN),
    ("hopf", "TensorElement.__add__", COUNT),
    ("hopf", "antipode", SPAN),
    ("hopf", "coproduct_slot", SPAN),
    ("hopf", "antipode_slot_multiply", SPAN),
    ("hopf", "check_coassociativity", SPAN),
    ("hopf", "check_counit_axiom", SPAN),
    ("hopf", "check_antipode_axiom", SPAN),
    ("hopf", "check_coproduct_homomorphism", SPAN),
    ("hopf", "check_centrality", SPAN),
    ("hopf", "check_jacobi", SPAN),
    ("crossproduct", "pair", SPAN),
    ("crossproduct", "left_action", SPAN),
    ("crossproduct", "cross_multiply", SPAN),
    ("crossproduct", "derive_phase_space_relations", SPAN),
    ("crossproduct", "basis_map_check", SPAN),
    ("grammar", "parse", SPAN),
    ("grammar", "evaluate", SPAN),
    ("kinematics", "sweep_rows", SPAN),
    ("kinematics", "mass_shell_exp", SPAN),
    ("kinematics", "check_mass_shell", SPAN),
    ("kinematics", "bounds_standard", SPAN),
    ("cli", "main", SPAN),
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__', '')}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    out = []
    for module, attr, kind in TARGETS:
        base = metric_name(module, attr)
        out.append((f"{base}.calls", "count"))
        if kind == SPAN:
            out += [(f"{base}.total_s", "s"), (f"{base}.self_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return functools.update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"kappahopf.{module_name}")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "kappahopf" or key.startswith("kappahopf.")
        ]
        for module_name, attr, kind in TARGETS:
            module = sys.modules[f"kappahopf.{module_name}"]
            name = metric_name(module_name, attr)
            make = self._span if kind == SPAN else self._counter
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, make(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        return self

    # -- results --------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """calls, total_s and self_s per span function; calls per counter.

        Self time is a span's duration minus the durations of its direct
        children (spans nest and do not overlap: one thread).  Total time
        counts only the outermost span of a name, so recursion through the
        same function is not counted twice.
        """
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, total, self_time = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = name_ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_time[nid] += dur - child[i]
            p = parents[i]
            while p >= 0 and name_ids[p] != nid:
                p = parents[p]
            if p < 0:
                total[nid] += dur
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = self_time[nid]
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        return out
