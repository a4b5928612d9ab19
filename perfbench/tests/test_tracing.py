"""The layer wrappers of the traced run."""

import os

import tracing
from repro.engine import execute_task, suite_tasks


def test_wrappers_count_calls_through_every_import_path_and_uninstall(tmp_path):
    import repro.engine.tasks
    import repro.lang
    import repro.lang.parser

    original = repro.lang.parser.parse_program
    tracer = tracing.install(str(tmp_path))
    try:
        assert repro.lang.parse_program is repro.lang.parser.parse_program
        assert repro.engine.tasks.parse_program is repro.lang.parser.parse_program
        assert repro.lang.parse_program.__wrapped__ is original
        open(os.path.join(tmp_path, "armed"), "w").close()
        task = next(t for t in suite_tasks("fig3", full=False) if t.name == "Sum02")
        repro.engine.tasks.execute_task(task)
    finally:
        tracer.uninstall()
    assert repro.lang.parser.parse_program is original
    assert repro.engine.execute_task is execute_task

    records = tracing.read_records(str(tmp_path))
    spans, counters = records["spans"], records["counters"]
    assert spans["engine.execute_task"][0] == 1
    assert spans["lang.parse_program"][0] == 1
    assert spans["core.analyze_component"][0] >= 1
    calls, total, own = spans["engine.execute_task"]
    # Self time is what the children do not cover, so it is below the total.
    assert 0 <= own < total
    assert sum(v[2] for v in spans.values()) <= total + 1e-6
    assert counters["polyhedra.simplex.bignum"] + counters["polyhedra.simplex.int64"] > 0


def test_unarmed_records_are_ignored(tmp_path):
    tracer = tracing.install(str(tmp_path))
    try:
        tracer.flush()
    finally:
        tracer.uninstall()
    assert tracing.read_records(str(tmp_path)) == {"spans": {}, "counters": {}}
