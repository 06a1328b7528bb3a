"""Per-layer tracing from outside the package.

The layers are the modules of ``geodom``.  ``Tracer.install`` rebinds every
name under which a traced function is reachable: the attribute of its own
module (which covers calls inside that module) and each alias a sibling
module made with ``from .x import f``.  Spans (name, start, end, parent,
workload) stay in memory until ``write``; self time is a span's duration
minus its children's.  ``geom.intersects`` runs millions of times per
basket, so it is counted, not spanned.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: module -> functions wrapped in a span
SPANNED = {
    "instances": ("generate", "dumps", "loads"),
    "geom": ("properize", "min_positive_gap"),
    "lp": ("solve_lp", "threshold_split"),
    "ssr": ("normalize", "solve", "solve_fast"),
    "srs": ("solve",),
    "stabbedl": ("normalize", "build_graph", "solve_mds"),
    "psd": ("psd_solve", "poss_solve", "build_strips"),
    "uvpg": ("build_graph", "solve_mds"),
    "oracle": ("exact_stab", "exact_mds"),
}
#: module -> functions whose calls are counted without a span
COUNTED = {"geom": ("intersects",)}


class TraceError(RuntimeError):
    """A traced name is missing, so its layer would silently read 0."""


def _lp_sizes(program) -> dict:
    rows = program.rows
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows)}


def _graph_edges(neighborhoods) -> int:
    # closed neighbourhoods: every vertex lists itself once
    return sum(len(v) - 1 for v in neighborhoods.values()) // 2


def _stabbedl_edges(result) -> dict:
    return {"edges": _graph_edges(result[0])}


def _uvpg_edges(result) -> dict:
    return {"edges": _graph_edges(result.neighborhoods)}


#: extra counts read from a call's arguments or result
_ARG_COUNTS = {"lp.solve_lp": _lp_sizes}
_RESULT_COUNTS = {
    "stabbedl.build_graph": _stabbedl_edges,
    "uvpg.build_graph": _uvpg_edges,
}


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        pkg = sys.modules.get("geodom")
        if pkg is None:
            raise TraceError("geodom is not imported")
        missing = []
        found = []
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod_name, names in table.items():
                mod = sys.modules.get(f"geodom.{mod_name}")
                for name in names:
                    fn = getattr(mod, name, None) if mod is not None else None
                    if not callable(fn):
                        missing.append(f"geodom.{mod_name}.{name}")
                    else:
                        found.append((f"{mod_name}.{name}", fn, spanned))
        if missing:
            raise TraceError("traced names no longer exist: " + ", ".join(missing))
        return found

    def install(self) -> None:
        if self._undo:
            raise TraceError("tracer already installed")
        targets = self._targets()
        wrapper_of = {
            id(fn): (self._span_wrapper(label, fn) if spanned else self._count_wrapper(label, fn))
            for label, fn, spanned in targets
        }
        originals = {id(fn): fn for _, fn, _ in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geodom" or mod_name.startswith("geodom.")):
                continue
            for attr, value in list(vars(mod).items()):
                key = id(value)
                if key in wrapper_of and originals[key] is value:
                    setattr(mod, attr, wrapper_of[key])
                    self._undo.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _count_wrapper(self, label: str, fn):
        counts = self.counts
        key = label + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, label: str, fn):
        arg_counts = _ARG_COUNTS.get(label)
        result_counts = _RESULT_COUNTS.get(label)
        counts = self.counts

        def spanned(*args, **kwargs):
            counts[label + ".calls"] += 1
            if arg_counts is not None:
                for stat, value in arg_counts(*args, **kwargs).items():
                    counts[f"{label}.{stat}"] += value
            with self.span(label):
                result = fn(*args, **kwargs)
            if result_counts is not None:
                for stat, value in result_counts(result).items():
                    counts[f"{label}.{stat}"] += value
            return result

        return spanned

    def span(self, name: str):
        return _Span(self, name)

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self seconds per span name over spans[first:]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent is not None and parent >= first:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name] += (end - start) - child[i]
        return out

    def child_count(self, parent_name: str, child_name: str, first: int = 0) -> int:
        spans = self.spans
        return sum(
            1
            for name, _, _, parent in spans[first:]
            if name == child_name and parent is not None and spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "fields": ["name", "start", "end", "parent", "workload"],
                    "spans": [[n, s, e, p, self.workload] for n, s, e, p in self.spans],
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append((self.name, time.perf_counter(), None, parent))
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        name, start, _, parent = t.spans[self.index]
        t.spans[self.index] = (name, start, end, parent)
        t._stack.pop()
        return False
