"""The seeded edit generator behind the ``warm-edit`` workload."""

import itertools

import pytest

from edits import EditStream, entry_procedure, insert_declaration
from repro.engine import suite_tasks
from repro.lang import parse_program, procedure_fingerprints

TASKS = suite_tasks("all", full=False)


def _take(stream, count):
    return [(index, task.source) for index, task in itertools.islice(stream, count)]


def test_the_benchmark_rows_are_the_sixteen_default_rows():
    assert len(TASKS) == 16
    assert [t.suite for t in TASKS].count("table1") == 8
    assert [t.suite for t in TASKS].count("table2") == 3
    assert [t.suite for t in TASKS].count("fig3") == 5


def test_same_seed_same_edits_other_seed_other_edits():
    first = _take(EditStream(TASKS, seed=7), 40)
    assert first == _take(EditStream(TASKS, seed=7), 40)
    assert first != _take(EditStream(TASKS, seed=8), 40)


def test_each_cycle_visits_every_row_once():
    stream = EditStream(TASKS, seed=3)
    for _ in range(3):
        assert sorted(index for index, _ in stream.cycle()) == list(range(len(TASKS)))


def test_every_edit_is_new():
    sources = [source for _, source in _take(EditStream(TASKS, seed=1), 48)]
    assert len(set(sources)) == len(sources)


@pytest.mark.parametrize("seed", [0, 1])
def test_only_the_entry_procedure_fingerprint_changes(seed):
    stream = EditStream(TASKS, seed=seed)
    before = [procedure_fingerprints(parse_program(t.source)) for t in TASKS]
    for index, edited in stream.cycle():
        after = procedure_fingerprints(parse_program(edited.source))
        changed = {name for name in after if after[name] != before[index][name]}
        assert set(after) == set(before[index])
        assert changed == {stream.entries[index]}, TASKS[index].name
        assert edited.source.count("\n") == TASKS[index].source.count("\n")
        assert edited.procedure == TASKS[index].procedure


def test_entry_procedure_prefers_main_then_an_uncalled_procedure():
    by_name = {t.name: t for t in TASKS}
    assert entry_procedure(by_name["quad"].source) == "main"
    assert entry_procedure(by_name["fibonacci"].source, "fib") == "fib"
    assert entry_procedure(by_name["subset_sum"].source, "subsetSumAux") == "subsetSum"


def test_insert_declaration_rejects_an_unknown_procedure():
    with pytest.raises(ValueError):
        insert_declaration(TASKS[0].source, "nowhere", 1, 2)
