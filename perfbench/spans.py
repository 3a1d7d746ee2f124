"""Span tracer for the benchmark's traced passes.

The tracer wraps the library's layer functions from outside: each wrapped
call records a span ``[name, start, end, parent]`` in memory, where
``parent`` is the index of the enclosing span or -1.  A function is
rebound in every ``delpezzo`` module namespace that holds it, because
``enumerator`` and ``catalog`` import ``build_ladder``, ``eliminate`` and
the others by name; rebinding only the defining module would miss those
calls.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name)
FUNCTIONS = (
    ("delpezzo.enumerator", "classify", "enumerator.classify"),
    ("delpezzo.enumerator", "audit", "enumerator.audit"),
    ("delpezzo.enumerator", "random_pseudo_fundamental_ladders", "enumerator.fuzz"),
    ("delpezzo.enumerator", "generate_cells", "enumerator.generate_cells"),
    ("delpezzo.enumerator", "search_cell", "enumerator.search_cell"),
    ("delpezzo.enumerator", "catalog_key_map", "enumerator.catalog_key_map"),
    ("delpezzo.enumerator", "canonical_form", "enumerator.canonical_form"),
    ("delpezzo.multiplet", "build_ladder", "multiplet.build_ladder"),
    ("delpezzo.multiplet", "certify_ladder", "multiplet.certify_ladder"),
    ("delpezzo.multiplet", "identities_check", "multiplet.identities_check"),
    ("delpezzo.multiplet", "volume", "multiplet.volume"),
    ("delpezzo.multiplet", "index_of", "multiplet.index_of"),
    ("delpezzo.graphs", "canonical_key", "graphs.canonical_key"),
    ("delpezzo.catalog", "build_entry_ladder", "catalog.build_entry_ladder"),
    ("delpezzo.elimination", "eliminate", "elimination.eliminate"),
    ("delpezzo.elimination", "transform", "elimination.transform"),
)

# (defining module, class, method, span name)
METHODS = (
    ("delpezzo.lattice", "SurfaceModel", "intersect", "lattice.intersect"),
    ("delpezzo.lattice", "SurfaceModel", "blow_up", "lattice.blow_up"),
)


class Tracer:
    """Records spans and result counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(
            (
                "enumerator.cells.evaluated",
                "enumerator.cells.searched",
                "enumerator.search.configs",
                "enumerator.search.candidates",
                "enumerator.search.survivors",
                "enumerator.audit.cells_swept",
            ),
            0,
        )
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "enumerator.generate_cells": self._count_cells,
            "enumerator.search_cell": self._count_search,
            "enumerator.audit": self._count_audit,
        }

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in _library_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._rebind(cls, attr, self._wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # -- counters at layer boundaries ---------------------------------------

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count_cells(self, result) -> None:
        cells, killed = result
        self._add("enumerator.cells.searched", len(cells))
        self._add("enumerator.cells.evaluated", len(cells) + sum(killed.values()))
        for reason, count in killed.items():
            self._add(f"enumerator.kill.{reason}", count)

    def _count_search(self, outcome) -> None:
        self._add("enumerator.search.configs", outcome.configs)
        self._add("enumerator.search.candidates", outcome.candidates)
        self._add("enumerator.search.survivors", len(outcome.survivors))
        for reason, count in outcome.rejected.items():
            # "certificates:<failures>" reasons are folded into one counter
            self._add(f"enumerator.search.rejected.{reason.split(':')[0]}", count)

    def _count_audit(self, report) -> None:
        self._add("enumerator.audit.cells_swept", report.cells_swept)
        for reason, count in report.killed.items():
            self._add(f"enumerator.kill.{reason}", count)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time, self time and calls per span name, plus counters.

        A span's self time is its duration minus the durations of its direct
        children; calls are serial, so children never overlap.  None of the
        wrapped functions recurses, so inclusive times add up without
        counting any interval twice.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in [n for *_, n in FUNCTIONS] + [n for *_, n in METHODS]:
            out[f"{name}.s"] = out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        evaluated = self.counts["enumerator.cells.evaluated"]
        candidates = self.counts["enumerator.search.candidates"]
        out["enumerator.cells.useful_ratio"] = (
            self.counts["enumerator.cells.searched"] / evaluated if evaluated else 0.0
        )
        out["enumerator.search.survivor_ratio"] = (
            self.counts["enumerator.search.survivors"] / candidates if candidates else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def _library_modules():
    return [
        mod
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "delpezzo" or modname.startswith("delpezzo."))
    ]
