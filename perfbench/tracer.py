"""Outside-in tracer: wraps public lietower functions from outside the
package, records one span per call in memory, and counts calls.

Spans carry a name, start, end, parent span and the id of the command
that caused them.  ``install`` rebinds every name in every loaded
``lietower`` module that refers to a wrapped function, so bindings made by
``from ... import`` (``lietower.verify.rank``, ``lietower.cli.find_cartan``,
``commutator`` in ``cartan`` and ``sopq``) are traced too; methods are
patched on their class.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

# module -> attributes recorded as spans ("Class.method" patches the class).
SPANS = {
    "lietower.exact": ("rank", "SpanSolver.__init__", "SpanSolver.expand"),
    "lietower.sopq": (
        "build_generators", "verify_commutation", "pseudo_antisymmetry_holds",
        "hydrogen_alias_check",
    ),
    "lietower.cartan": (
        "find_cartan", "cartan_is_maximal", "casimir", "casimir_invariance",
        "yao_basis", "split_basis_so44", "ladder_operators", "subalgebra_basis",
        "weyl_generators", "root_system", "check_relation_table", "emulation_check",
    ),
    "lietower.verify": ("run_verification",),
    "lietower.periodic": ("assign_elements", "projection_slice", "find_element"),
    "lietower.labels": ("mass_sl2c", "mass_so42"),
    "lietower.svgout": ("svg_tower", "svg_root_squares"),
    "lietower.cli": ("main",),
}
# Counted only: these are too fine-grained for a span per call.
COUNTED = {"lietower.exact": ("commutator", "ExactMatrix.__matmul__")}

# Span name -> the per-layer metric group its self time is added to.
GROUPS = {
    "exact.SpanSolver.__init__": "exact.span_solver",
    "exact.SpanSolver.expand": "exact.span_solver",
    "cartan.yao_basis": "cartan.bases",
    "cartan.split_basis_so44": "cartan.bases",
    "cartan.ladder_operators": "cartan.bases",
    "cartan.subalgebra_basis": "cartan.bases",
    "labels.mass_sl2c": "labels.mass",
    "labels.mass_so42": "labels.mass",
}

# Per-layer metrics, in report order: self seconds per traced command ...
SELF_METRICS = (
    "exact.rank", "exact.span_solver",
    "sopq.verify_commutation", "sopq.pseudo_antisymmetry_holds",
    "sopq.hydrogen_alias_check", "sopq.build_generators",
    "cartan.find_cartan", "cartan.cartan_is_maximal",
    "cartan.casimir.d2", "cartan.casimir.d3", "cartan.casimir.d4",
    "cartan.casimir_invariance", "cartan.bases", "cartan.weyl_generators",
    "cartan.root_system", "cartan.check_relation_table", "cartan.emulation_check",
    "verify.run_verification",
    "periodic.assign_elements", "periodic.projection_slice", "periodic.find_element",
    "labels.mass", "svgout.svg_tower", "svgout.svg_root_squares", "cli.main",
)
# ... and call counts over the first round of the stream: metric -> counter.
CALL_METRICS = {
    "exact.rank.calls": "exact.rank",
    "exact.expand.calls": "exact.SpanSolver.expand",
    "exact.commutator.calls": "exact.commutator",
    "exact.matmul.calls": "exact.ExactMatrix.__matmul__",
    "cartan.find_cartan.calls": "cartan.find_cartan",
}


def _casimir_name(args: tuple, kwargs: dict) -> str:
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    return f"cartan.casimir.d{degree}"


class Tracer:
    def __init__(self) -> None:
        # [command id, name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        label_of = _casimir_name if name == "cartan.casimir" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else name
            counts[label] += 1
            index = len(spans)
            spans.append([self.command, label, clock(), 0.0, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions: dict[int, Callable] = {}
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for module_name, attrs in table.items():
                module = importlib.import_module(module_name)
                short = module_name.rpartition(".")[2]
                for attr in attrs:
                    name = f"{short}.{attr}"
                    cls_name, _, method = attr.rpartition(".")
                    if cls_name:
                        cls = getattr(module, cls_name)
                        self._set(cls, method, make(cls.__dict__[method], name))
                    else:
                        original = getattr(module, attr)
                        functions[id(original)] = make(original, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "lietower" and not module_name.startswith("lietower."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per metric group: span time minus child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (_, name, start, end, _), inner in zip(self.spans, child):
            group = GROUPS.get(name, name)
            totals[group] = totals.get(group, 0.0) + (end - start) - inner
        return totals

    def write(self, path: str) -> None:
        spans = [
            {
                "id": k,
                "command": cmd,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
            }
            for k, (cmd, name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


def layer_metrics(
    tracer: Tracer, traced_commands: int, first_round_counts: Optional[dict]
) -> dict[str, float]:
    totals = tracer.self_seconds()
    metrics = {f"{g}.self_s": totals.get(g, 0.0) / traced_commands for g in SELF_METRICS}
    counts = first_round_counts or {}
    metrics.update({m: counts.get(c, 0) for m, c in CALL_METRICS.items()})
    return metrics
