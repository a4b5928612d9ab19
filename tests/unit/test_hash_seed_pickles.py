"""Persisted warm state stays valid under a different string-hash seed.

Symbols are interned and hash once, and constraints cache their hash; str
hashes differ between processes with different ``PYTHONHASHSEED``s.  A
memo snapshot or an incremental store written by one process and loaded
by another must therefore rebuild every symbol through its constructor:
a stale cached hash would silently break set and dict lookups.  Each
check writes under seed 1 and loads in a fresh process under seed 2.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Shared by the writer and the reader: one fast paper row, analysed
#: through the engine's task runner, rendered as a JSON payload.
PRELUDE = textwrap.dedent(
    """
    import dataclasses, json, sys
    from repro.engine import execute_task, suite_tasks
    from repro.engine.storage import DirectoryStorage
    from repro.formulas.symbols import Symbol
    from repro.polyhedra import cache as memo
    from repro.polyhedra.constraint import LinearConstraint

    directory = sys.argv[1]
    memo_storage = DirectoryStorage(directory + "/memo")
    store_storage = DirectoryStorage(directory + "/store")
    task = next(t for t in suite_tasks("fig3", full=False) if t.name == "Sum02")
    task = dataclasses.replace(task, kind="analyze")

    from repro.formulas.polynomial import Polynomial

    def symbols_in(value, found, seen=None):
        # Every Symbol reachable from `value` through analysis data.
        seen = set() if seen is None else seen
        if id(value) in seen:
            return found
        seen.add(id(value))
        if isinstance(value, Symbol):
            found.append(value)
        elif isinstance(value, LinearConstraint):
            found.extend(value.syms)
        elif isinstance(value, Polynomial):
            symbols_in(list(value.terms.items()), found, seen)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                symbols_in(getattr(value, field.name), found, seen)
        elif isinstance(value, dict):
            symbols_in(list(value.items()), found, seen)
        elif isinstance(value, (tuple, list, set, frozenset)):
            for item in value:
                symbols_in(item, found, seen)
        return found

    def interned(symbols):
        return all(
            s is Symbol(s.name, s.is_primed, s.index)
            and hash(s) == hash((s.name, s.is_primed, s.index))
            for s in symbols
        )
    """
)

WRITER = PRELUDE + textwrap.dedent(
    """
    from repro.core.incremental import IncrementalAnalyzer
    from repro.engine.tasks import set_program_analyzer

    with memo.keep_warm():
        cold = execute_task(task)
        assert memo.save_snapshot(memo_storage, "fp") > 0
    memo.clear_caches(force=True)
    analyzer = IncrementalAnalyzer()
    previous = set_program_analyzer(analyzer.analyze)
    try:
        incremental = execute_task(task)
    finally:
        set_program_analyzer(previous)
    assert analyzer.save_store(store_storage, "fp") > 0
    print(json.dumps({"cold": cold, "incremental": incremental}, sort_keys=True))
    """
)

READER = PRELUDE + textwrap.dedent(
    """
    from repro.core.incremental import IncrementalAnalyzer
    from repro.engine.tasks import set_program_analyzer

    report = {}
    # Memo snapshot: every loaded symbol is the interned instance, hashed
    # under this process's seed, and the loaded keys are hit.
    assert memo.load_snapshot(memo_storage, "fp") > 0
    loaded = symbols_in([t.export_entries() for t in memo._REGISTRY.values()], [])
    assert loaded
    report["memo_symbols_interned"] = interned(loaded)
    hits_before = sum(t.hits for t in memo._REGISTRY.values())
    with memo.keep_warm():
        report["cold"] = execute_task(task)
    report["memo_hits"] = sum(t.hits for t in memo._REGISTRY.values()) - hits_before
    # Incremental store: every component is spliced, none re-analysed.
    memo.clear_caches(force=True)
    analyzer = IncrementalAnalyzer()
    assert analyzer.load_store(store_storage, "fp") > 0
    stored = symbols_in(list(analyzer._store.items()), [])
    assert stored
    report["store_symbols_interned"] = interned(stored)
    previous = set_program_analyzer(analyzer.analyze)
    try:
        report["incremental"] = execute_task(task)
    finally:
        set_program_analyzer(previous)
    report["reanalyzed"] = list(analyzer.last_report.analyzed)
    report["reused"] = list(analyzer.last_report.reused)
    print(json.dumps(report, sort_keys=True))
    """
)


def _run(script, seed, directory):
    environment = dict(os.environ, PYTHONHASHSEED=str(seed))
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script, str(directory)],
        capture_output=True,
        text=True,
        env=environment,
        timeout=600,
    )
    assert output.returncode == 0, output.stderr[-3000:]
    return json.loads(output.stdout.strip().splitlines()[-1])


def test_snapshot_and_store_load_under_another_hash_seed(tmp_path):
    written = _run(WRITER, 1, tmp_path)
    loaded = _run(READER, 2, tmp_path)
    assert loaded["memo_symbols_interned"]
    assert loaded["store_symbols_interned"]
    assert loaded["memo_hits"] > 0
    assert loaded["reanalyzed"] == []
    assert loaded["reused"]
    for payload in ("cold", "incremental"):
        for record in (written[payload], loaded[payload]):
            record.pop("wall_time", None)
        assert loaded[payload] == written[payload]
