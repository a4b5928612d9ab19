"""Spans and counters around the public functions of each ``repro`` layer.

:func:`install` wraps every function in :data:`FUNCTIONS` and every method
in :data:`METHODS`, rebinding the name in each ``repro.*`` module that holds
it, so calls through any import path are timed.  Install before the batch
engine or the worker pool forks: forks inherit the wrappers, start from an
empty record, and each process writes its own record to
``<directory>/<pid>.json``.

Spans are kept as aggregates per name: ``calls``, ``s`` (time inside the
outermost call of that name, so recursion is not counted twice) and ``self``
(time not covered by a child span).  A layer's self time is the sum of the
``self`` of its spans; the layer is the first part of the span name.

Counters come from the program's own registries: the simplex kernel counts
and the memo-table hits and misses, read around each ``execute_task`` call
(the unit of analysis work in every process), plus the DNF cube count and
the pool's queue depth.

A process writes its record after each top-level ``execute_task`` call
and when :meth:`Tracer.flush` is called.  A record made while
``<directory>/armed`` was absent is dropped at the first top-level call
(``execute_task`` or ``WorkerPool.submit_with_meta``) after the file
appears, so warm-up work is left out; :func:`read_records` ignores
records that were never armed.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable

__all__ = ["FUNCTIONS", "METHODS", "Tracer", "install", "read_records"]

#: span name -> (module, function name)
FUNCTIONS: dict[str, tuple[str, str]] = {
    "lang.parse_program": ("repro.lang.parser", "parse_program"),
    "lang.build_call_graph": ("repro.lang.callgraph", "build_call_graph"),
    "formulas.to_dnf": ("repro.formulas.dnf", "to_dnf"),
    "abstraction.abstract": ("repro.abstraction.symbolic_abstraction", "abstract"),
    "abstraction.abstract_many": ("repro.abstraction.symbolic_abstraction", "abstract_many"),
    "abstraction.is_formula_satisfiable": (
        "repro.abstraction.symbolic_abstraction",
        "is_formula_satisfiable",
    ),
    "abstraction.formula_entails": ("repro.abstraction.symbolic_abstraction", "formula_entails"),
    "polyhedra.eliminate": ("repro.polyhedra.fourier_motzkin", "eliminate"),
    "polyhedra.minimize_constraints": ("repro.polyhedra.fourier_motzkin", "minimize_constraints"),
    "polyhedra.convex_hull": ("repro.polyhedra.hull", "convex_hull"),
    "polyhedra.is_satisfiable": ("repro.polyhedra.lp", "is_satisfiable"),
    "polyhedra.entails": ("repro.polyhedra.lp", "entails"),
    "polyhedra.maximize": ("repro.polyhedra.lp", "maximize"),
    "polyhedra.linprog": ("repro.polyhedra.lp", "linprog"),
    "analysis.summarize_procedure": ("repro.analysis.intra", "summarize_procedure"),
    "analysis.summarize_loop": ("repro.analysis.loop_summary", "summarize_loop"),
    "recurrence.solve_first_order": ("repro.recurrence.cfinite", "solve_first_order"),
    "recurrence.solve_linear_system": ("repro.recurrence.cfinite", "solve_linear_system"),
    "core.analyze_component": ("repro.core.chora", "analyze_component"),
    "core.run_height_analysis": ("repro.core.height_analysis", "run_height_analysis"),
    "core.compute_depth_bound": ("repro.core.depth_bound", "compute_depth_bound"),
    "core.run_two_region_analysis": ("repro.core.two_region", "run_two_region_analysis"),
    "core.check_assertions": ("repro.core.assertion", "check_assertions"),
    "core.cost_bound": ("repro.core.complexity", "cost_bound"),
    "engine.execute_task": ("repro.engine.tasks", "execute_task"),
}

#: span name -> (module, class, method name)
METHODS: dict[str, tuple[str, str, str]] = {
    "recurrence.StratifiedSystem.solve": ("repro.recurrence.stratified", "StratifiedSystem", "solve"),
    "core.IncrementalAnalyzer.analyze": ("repro.core.incremental", "IncrementalAnalyzer", "analyze"),
    "service.submit": ("repro.service.pool", "WorkerPool", "submit_with_meta"),
}

#: Modules imported before wrapping, so every ``from x import f`` binding
#: that will ever exist in a forked process exists when names are rebound.
_PRELOAD = ("repro.cli", "repro.service.server", "repro.core.incremental")

#: Top-level spans: where a process notices a fork or the ``armed`` file.
_TOP = ("engine.execute_task", "service.submit")


class Tracer:
    """The span and counter record of one process."""

    def __init__(self, directory: str):
        self.directory = directory
        self._originals: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.armed = os.path.exists(os.path.join(self.directory, "armed"))
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._in_flight = 0

    def _frames(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.open = [], {}
        return local.stack, local.open

    def _enter_top(self) -> None:
        if os.getpid() != self.pid or (
            not self.armed and os.path.exists(os.path.join(self.directory, "armed"))
        ):
            with self._lock:
                self._reset()

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        top = name in _TOP
        analysis = name == "engine.execute_task"
        service = name == "service.submit"
        dnf = name == "formulas.to_dnf"

        def traced(*args, **kwargs):
            stack, opened = tracer._frames()
            if top and not stack:
                tracer._enter_top()
                stack, opened = tracer._frames()
            # A cold task clears the memo counters as it starts; the delta is
            # right because batch workers fork from a process that never
            # analyses (its counters are 0) and warm workers never clear.
            before = _program_counters() if analysis else None
            if service:
                with tracer._lock:
                    tracer._in_flight += 1
                    peak = tracer.counters.get("service.in_flight.max", 0)
                    tracer.counters["service.in_flight.max"] = max(peak, tracer._in_flight)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            opened[name] = opened.get(name, 0) + 1
            try:
                result = function(*args, **kwargs)
                if dnf:
                    tracer.count("formulas.to_dnf.cubes", len(result))
                return result
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                opened[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    record = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                    record[0] += 1
                    record[2] += elapsed - frame[1]
                    if not opened[name]:
                        record[1] += elapsed
                    if service:
                        tracer._in_flight -= 1
                if before is not None:
                    for key, value in _program_counters().items():
                        tracer.count(key, value - before.get(key, 0))
                    if not stack:
                        tracer.flush()

        traced.__wrapped__ = function
        return traced

    def flush(self) -> None:
        """Write this process's record (atomically replacing the last one)."""
        path = os.path.join(self.directory, f"{os.getpid()}.json")
        with self._lock:
            record = {"armed": self.armed, "spans": self.spans, "counters": self.counters}
            text = json.dumps(record)
        with open(path + ".tmp", "w") as handle:
            handle.write(text)
        os.replace(path + ".tmp", path)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()


def _program_counters() -> dict[str, float]:
    from repro.polyhedra.cache import cache_stats
    from repro.polyhedra.simplex import kernel_stats

    counters = {f"polyhedra.simplex.{k}": v for k, v in kernel_stats().items()}
    for table, stats in cache_stats().items():
        counters[f"memo.{table}.hits"] = stats["hits"]
        counters[f"memo.{table}.misses"] = stats["misses"]
    return counters


def install(directory: str) -> Tracer:
    """Wrap every listed function and method; returns the process's tracer."""
    for module in _PRELOAD:
        importlib.import_module(module)
    tracer = Tracer(directory)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
    for name, (module, attribute) in FUNCTIONS.items():
        original = getattr(importlib.import_module(module), attribute)
        wrapper = tracer.wrap(name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    tracer._originals.append((holder, key, original))
                    setattr(holder, key, wrapper)
    for name, (module, owner, attribute) in METHODS.items():
        cls = getattr(importlib.import_module(module), owner)
        original = cls.__dict__[attribute]
        tracer._originals.append((cls, attribute, original))
        setattr(cls, attribute, tracer.wrap(name, original))
    return tracer


def read_records(directory: str) -> dict[str, Any]:
    """Sum the armed records every process wrote to ``directory``."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry)) as handle:
            record = json.load(handle)
        if not record["armed"]:
            continue
        for name, values in record["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                total[i] += value
        for name, value in record["counters"].items():
            if name.endswith(".max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}
