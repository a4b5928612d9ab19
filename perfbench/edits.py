"""Seeded program edits for the ``warm-edit`` workload.

An edit inserts one unused declaration ``int bench_edit_<k> = <c>;`` at the
top of a row's entry procedure: ``main`` when the program has one, else the
procedure no other procedure calls.  The declaration is written on the line
of the body's opening brace, so no statement moves to another line.  The
edit keeps the row's verdict but changes the entry procedure's fingerprint
and only that one (nothing calls the entry procedure), so a warm service
re-analyses one component and splices the rest.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from repro.engine import AnalysisTask
from repro.lang import build_call_graph, parse_program

__all__ = ["entry_procedure", "insert_declaration", "EditStream"]


def entry_procedure(source: str, preferred: Optional[str] = None) -> str:
    """The procedure an edit of ``source`` goes into.

    ``main`` when defined; otherwise a procedure that no *other* procedure
    calls (self-recursion does not count), ``preferred`` first among several.
    """
    program = parse_program(source)
    names = [procedure.name for procedure in program.procedures]
    if "main" in names:
        return "main"
    graph = build_call_graph(program)
    called = {
        callee for name in names for callee in graph.callees(name) if callee != name
    }
    roots = [name for name in names if name not in called]
    if not roots:
        raise ValueError("every procedure is called by another; no entry procedure")
    return preferred if preferred in roots else roots[0]


def insert_declaration(source: str, procedure: str, k: int, constant: int) -> str:
    """``source`` with ``int bench_edit_<k> = <constant>;`` opening ``procedure``."""
    header = re.compile(r"\b(?:int|void|bool)\s+" + re.escape(procedure) + r"\s*\(")
    match = header.search(source)
    if match is None:
        raise ValueError(f"no definition of {procedure!r} in the source")
    brace = source.index("{", source.index(")", match.end()))
    declaration = f" int bench_edit_{k} = {constant};"
    return source[: brace + 1] + declaration + source[brace + 1 :]


class EditStream:
    """An endless, seeded sequence of freshly edited copies of ``tasks``.

    Requests come in cycles: each cycle visits every row once, in an order
    drawn from the seed, so any whole number of cycles has the same row mix.
    ``k`` counts requests, so every edited source is new to the service.
    """

    def __init__(self, tasks: Sequence[AnalysisTask], seed: int):
        self.tasks = list(tasks)
        self.entries = [entry_procedure(t.source, t.procedure) for t in self.tasks]
        self._random = random.Random(seed)
        self._k = 0

    def cycle(self) -> list[tuple[int, AnalysisTask]]:
        """One cycle of ``(row index, edited task)`` pairs."""
        order = list(range(len(self.tasks)))
        self._random.shuffle(order)
        edits = []
        for index in order:
            self._k += 1
            task = self.tasks[index]
            source = insert_declaration(
                task.source, self.entries[index], self._k, self._random.randrange(1, 1000)
            )
            edits.append((index, replace(task, source=source)))
        return edits

    def __iter__(self) -> Iterator[tuple[int, AnalysisTask]]:
        while True:
            yield from self.cycle()
