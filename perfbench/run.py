"""The repository benchmark: the paper's 16 default rows, cold, warm and cached.

Usage::

    python3 perfbench/run.py --workload cold-paper|warm-edit|serve-hit \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every workload uses the 16 rows ``repro.engine.suite_tasks("all")`` returns
by default (Table 1 x8, Table 2 x3, Fig. 3 x5) and checks each answer
against the paper's CHORA column.

``cold-paper``
    Closed loop, one client: whole passes over the rows through
    ``BatchEngine(jobs=1)`` with no result cache and no memo snapshot (the
    path of ``repro bench --no-cache``).  The seed orders each pass.
``warm-edit``
    Closed loop, one connection to ``repro serve --workers 1`` with a fresh
    result cache.  After an untimed request per row, every request is a new
    seeded edit of a row (see :mod:`edits`), in whole cycles over the rows.
``serve-hit``
    Open loop at :data:`HIT_RATE` requests/s from two connections against
    the same kind of server; every request repeats a warmed row, so the
    result cache answers it.  Latency counts from the instant a request was
    due, so a stall also delays the requests queued behind it.

The amount of work is fixed by ``--seconds`` alone (passes, edit cycles or
requests sized to take about that long at this commit), so two runs have
the same number and mix of requests.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run is made twice, untraced
then traced (wrappers of :mod:`tracing`), and the JSON object holds the
per-layer metrics and the tracing overhead.  Lines before it are a report
for people.  Exit code 2 means the checkout has no ``src/repro``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold-paper", "warm-edit", "serve-hit")

#: ``cold-paper`` makes ``--seconds / PASS_SECONDS`` passes: four at 24 s.
#: A cold pass over the 16 rows takes 6-15 s on a 2-CPU host as its load
#: varies, and a run needs four to average over the host's slow spells.
PASS_SECONDS = 6.0
#: ``warm-edit`` makes ``--seconds / EDIT_CYCLE_SECONDS`` cycles of 16
#: edits: eight at 24 s (one cycle takes 3-7 s).
EDIT_CYCLE_SECONDS = 3.0
#: Offered rate of ``serve-hit``, well below what one connection sustains,
#: and the length of each of its repeats.
HIT_RATE = 200.0
HIT_REPEAT_SECONDS = 3.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rows whose paper verdict this repository does not reach yet.  A mismatch
#: on them counts in ``paper_match_share`` but does not make the run wrong.
KNOWN_DEVIATIONS = {("table2", "quad")}


# ---------------------------------------------------------------------- #
# Verdicts
# ---------------------------------------------------------------------- #
def normalise_bound(text):
    """``O(n*log(n))`` and ``O(n log(n))`` compare equal."""
    return "".join(str(text).split()).replace("*", "")


def paper_verdict(task):
    """The paper's CHORA answer for a row: a bound or proved/not proved."""
    from repro.benchlib.suites import suite_entry

    paper = suite_entry(task.suite, task.name).paper
    if task.suite == "table1":
        return normalise_bound(paper["chora"])
    if task.suite == "table2":
        return bool(paper["verdicts"]["CHORA"])
    return bool(paper["expected_chora"])


def answer_verdict(task, record):
    if task.kind == "complexity":
        return normalise_bound(record.get("bound"))
    return bool(record.get("proved"))


def rows():
    from repro.engine import suite_tasks

    tasks = suite_tasks("all", full=False)
    if len(tasks) != 16:
        raise SystemExit(f"expected the 16 default rows, found {len(tasks)}")
    return tasks


def task_document(task):
    return {
        "name": task.name,
        "suite": task.suite,
        "source": task.source,
        "kind": task.kind,
        "procedure": task.procedure,
        "cost_variable": task.cost_variable,
        "substitutions": dict(task.substitutions),
    }


# ---------------------------------------------------------------------- #
# Measurements
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Every timed request of one phase, in repeats; none is ever dropped.

    A phase is cut into repeats (a cold pass, an edit cycle, a slice of
    the open loop).  Latencies are reported for a typical repeat (see
    :meth:`percentile`), so a slow spell of the host that covers less than
    half of the repeats does not move them; throughput is taken over the
    whole phase.
    """

    tasks: list
    expected: list
    #: whether every repeat asks each row exactly once.
    cyclic: bool = True
    window: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    row: list = field(default_factory=list)
    worker: list = field(default_factory=list)
    lag: list = field(default_factory=list)
    #: ``[start, end, correct answers]`` of each repeat.
    repeats: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    unexpected: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def failure(self, index, detail):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{self.tasks[index].name}: {detail}"[:300])

    def answer(self, repeat, index, record, latency, worker=0.0, lag=0.0):
        """Count one answered request; ``record`` is a BatchResult dict."""
        if record.get("outcome") != "ok":
            self.failure(index, f"{record.get('outcome')}: {record.get('detail', '')}")
            return
        self.attempted += 1
        task = self.tasks[index]
        self.window.append(repeat)
        self.latency.append(latency)
        self.row.append(index)
        self.worker.append(worker)
        self.lag.append(lag)
        verdict = answer_verdict(task, record)
        if verdict != self.expected[index]:
            self.mismatched += 1
            if (task.suite, task.name) not in KNOWN_DEVIATIONS:
                self.unexpected.append(f"{task.suite}/{task.name}: {verdict!r}")
        else:
            self.repeats[repeat][2] += 1

    @property
    def answered(self):
        return self.attempted - self.failed

    def tail_percentile(self):
        """The highest nearest-rank percentile with 10 answers beyond it.

        Counted in each repeat when every repeat has more than 20 answers,
        else over the whole phase (the median when that has 20 or fewer).
        """
        smallest = min(self.window.count(r) for r in range(len(self.repeats)))
        count = smallest if smallest > 20 else len(self.latency)
        return 100 * max(math.ceil(count / 2), count - 10) / max(count, 1)

    def percentile(self, q, values=None):
        """The ``q``-th percentile of a typical repeat.

        For cyclic phases (every repeat asks each row once) the typical
        repeat holds each row's median over the repeats; otherwise it is
        the median over repeats of each repeat's percentile.
        """
        values = self.latency if values is None else values
        if self.cyclic:
            by_row = [[] for _ in self.tasks]
            for row, value in zip(self.row, values):
                by_row[row].append(value)
            return nearest_rank([statistics.median(v) for v in by_row if v], q)
        grouped = [[] for _ in self.repeats]
        for repeat, value in zip(self.window, values):
            grouped[repeat].append(value)
        return statistics.median(nearest_rank(group, q) for group in grouped)

    def end_to_end(self, setup_s, rss_mb):
        # Correct answers per second of the whole timed phase: a median over
        # repeats would follow whichever of the host's slow or quiet spells
        # covers most of them.
        timed = sum(end - start for start, end, _ in self.repeats)
        throughput = sum(n for _, _, n in self.repeats) / timed
        return {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "latency_p50_ms": (1000 * self.percentile(50), "ms"),
            "latency_tail_ms": (1000 * self.percentile(self.tail_percentile()), "ms"),
            "answered_share": (self.answered / max(self.attempted, 1), "ratio"),
            "paper_match_share": ((self.answered - self.mismatched) / max(self.answered, 1), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


def nearest_rank(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def children_peak_rss_mb():
    """Peak RSS of the largest finished child process (and its children)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------- #
# The analysis service
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve --workers 1`` process with its own result cache."""

    def __init__(self, work, trace_dir=None):
        cache = tempfile.mkdtemp(prefix="cache-", dir=work)
        self.log = open(os.path.join(work, f"serve-{os.path.basename(cache)}.log"), "w")
        command = [
            sys.executable,
            os.path.join(HERE, "serve.py"),
            trace_dir or "-",
            "serve",
            "--port", "0",
            "--workers", "1",
            "--cache-dir", cache,
        ]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=clean_environment(work),
            cwd=ROOT,
        )
        self.url = None

    def wait_ready(self, timeout=120.0):
        from repro.service import ServiceClient

        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = line.split("http://", 1)[1].split()[0]
        with ServiceClient(self.url, timeout=timeout) as client:
            client.healthz()

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def clean_environment(work):
    """The environment without ``REPRO_*`` switches, temp files in ``work``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = work
    return env


def warm_up(client, tasks):
    """One untimed request per unedited row; returns each row's verdict."""
    verdicts = []
    for index, task in enumerate(tasks):
        record = client.analyze(task_document(task)).document
        if record.get("outcome") != "ok":
            raise RuntimeError(f"warm-up of {task.name} failed: {record.get('detail')}")
        verdicts.append(answer_verdict(task, record))
    return verdicts


def counters(client):
    """The service counters a phase reports as differences."""
    stats = client.stats().document["pool"]
    metrics = client.metrics().document
    return {
        "requests": stats["requests"],
        "cache_hits": stats["cache_hits"],
        "reused": stats["procedures_reused"],
        "analysed": stats["procedures_analyzed"],
        "rejected_429": metrics["rejected_429"],
        "deadline_504": metrics["deadline_504"],
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@dataclass
class Setup:
    """Where set-up time goes: ``start_s`` (process start to a ready engine
    or server, including ``import_s``) and then ``warmup_s``."""

    import_s: float = 0.0
    pool_ready_s: float = 0.0
    start_s: float = 0.0
    warmup_s: float = 0.0


class Workload:
    """The rows, the set-up split and the number of repeats of one workload."""

    #: Seconds one repeat takes at this commit.
    REPEAT_SECONDS = 5.0

    def __init__(self, seed, seconds, work, traced=False):
        self.seed, self.work = seed, work
        self.repeats = max(3, round(seconds / self.REPEAT_SECONDS))
        if traced:
            # A traced run makes the phase twice (untraced, then traced).
            self.repeats = max(1, self.repeats // 3)
        self.setup = Setup()
        self.trace = None
        self.trace_dir = None

    def load_rows(self):
        self.tasks = rows()
        self.expected = [paper_verdict(task) for task in self.tasks]

    def warm(self):
        pass

    def service_counters(self):
        return None

    def stop(self):
        pass


class ColdPaper(Workload):
    """Passes over the rows through the batch engine, cold every time."""

    REPEAT_SECONDS = PASS_SECONDS

    def start(self):
        from repro.engine import BatchEngine

        self.setup.import_s = time.perf_counter() - _STARTED
        self.load_rows()
        ready = time.perf_counter()
        self.engine = BatchEngine(jobs=1, cache=None, memo_snapshot=False)
        self.setup.pool_ready_s = time.perf_counter() - ready
        self.setup.start_s = time.perf_counter() - _STARTED

    def phase(self, rng):
        tally = Tally(self.tasks, self.expected)
        for repeat in range(self.repeats):
            order = list(range(len(self.tasks)))
            rng.shuffle(order)
            tally.repeats.append([time.perf_counter(), 0.0, 0])
            results = self.engine.run([self.tasks[i] for i in order])
            tally.repeats[-1][1] = time.perf_counter()
            for index, result in zip(order, results):
                tally.answer(repeat, index, result.to_dict(), result.wall_time)
        return tally


class ServedWorkload(Workload):
    """Shared set-up of the two workloads against ``repro serve``."""

    def __init__(self, seed, seconds, work, traced=False):
        super().__init__(seed, seconds, work, traced)
        self.server = None
        self.clients = []

    def start(self):
        from repro.service import ServiceClient

        began = time.perf_counter()
        self.setup.import_s = began - _STARTED
        self.load_rows()
        self.server = Server(self.work, self.trace_dir)
        self.server.wait_ready()
        self.clients = [ServiceClient(self.server.url, timeout=120) for _ in range(2)]
        self.setup.pool_ready_s = time.perf_counter() - began
        self.setup.start_s = time.perf_counter() - _STARTED

    def warm(self):
        began = time.perf_counter()
        self.warm_verdicts = warm_up(self.clients[0], self.tasks)
        self.setup.warmup_s = time.perf_counter() - began

    def service_counters(self):
        return counters(self.clients[0])

    def stop(self):
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()


class WarmEdit(ServedWorkload):
    """A closed loop of freshly edited rows over one connection."""

    REPEAT_SECONDS = EDIT_CYCLE_SECONDS

    def phase(self, rng):
        from edits import EditStream
        from repro.service.client import ServiceError

        stream = EditStream(self.tasks, rng.randrange(1 << 30))
        client = self.clients[0]
        tally = Tally(self.tasks, self.expected)
        for repeat in range(self.repeats):
            tally.repeats.append([time.perf_counter(), 0.0, 0])
            for index, task in stream.cycle():
                began = time.perf_counter()
                try:
                    record = client.analyze(task_document(task)).document
                except ServiceError as error:
                    tally.failure(index, repr(error))
                    continue
                latency = time.perf_counter() - began
                tally.answer(repeat, index, record, latency, worker=record.get("wall_time", 0.0))
                if answer_verdict(task, record) != self.warm_verdicts[index]:
                    tally.unexpected.append(f"edited {task.name} changed its verdict")
            tally.repeats[-1][1] = time.perf_counter()
        return tally


class ServeHit(ServedWorkload):
    """An open loop of cache hits at a fixed offered rate from two threads."""

    REPEAT_SECONDS = HIT_REPEAT_SECONDS

    def phase(self, rng):
        from repro.service.client import ServiceError

        per_repeat = 16 * round(HIT_RATE * HIT_REPEAT_SECONDS / 16)
        count = per_repeat * self.repeats
        schedule = []
        while len(schedule) < count:
            order = list(range(len(self.tasks)))
            rng.shuffle(order)
            schedule.extend(order)
        documents = [task_document(task) for task in self.tasks]
        tally = Tally(self.tasks, self.expected, cyclic=False)
        start = time.perf_counter() + 0.05
        # A slice runs from its first request's due instant to its last answer.
        tally.repeats = [[start + r * per_repeat / HIT_RATE, 0.0, 0] for r in range(self.repeats)]
        lock = threading.Lock()
        next_index = iter(range(count))
        errors = []

        def sender(client):
            try:
                while True:
                    with lock:
                        i = next(next_index, None)
                    if i is None:
                        return
                    due = start + i / HIT_RATE
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    sent = time.perf_counter()
                    row = schedule[i]
                    try:
                        record = client.analyze(documents[row]).document
                    except ServiceError as error:
                        with lock:
                            tally.failure(row, repr(error))
                        continue
                    done = time.perf_counter()
                    with lock:
                        repeat = i // per_repeat
                        tally.repeats[repeat][1] = max(tally.repeats[repeat][1], done)
                        tally.answer(
                            repeat, row, record, done - due,
                            worker=record.get("wall_time", 0.0), lag=sent - due,
                        )
            except BaseException as error:  # re-raised after the join
                errors.append(error)

        threads = [threading.Thread(target=sender, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return tally


CLASSES = {"cold-paper": ColdPaper, "warm-edit": WarmEdit, "serve-hit": ServeHit}


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #
def extra_setups(arguments, work):
    """Set-up times of further fresh processes (``--setup-only``)."""
    times = []
    for repeat in range(SETUP_REPEATS - 1):
        output = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", arguments.workload,
                "--seed", str(arguments.seed),
                "--seconds", str(arguments.seconds),
                "--trace", "0",
                "--setup-only",
            ],
            capture_output=True, text=True, env=clean_environment(work),
            cwd=ROOT, timeout=170,
        )
        if output.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{output.stderr[-2000:]}")
        times.append(json.loads(output.stdout.strip().splitlines()[-1])["start_s"])
    return times


def measure(arguments, work, trace_dir=None):
    """Set up, run the timed phase, tear down; returns (workload, tally, counters)."""
    workload = CLASSES[arguments.workload](
        arguments.seed, arguments.seconds, work, traced=bool(arguments.trace)
    )
    if trace_dir is not None and arguments.workload != "cold-paper":
        workload.trace_dir = trace_dir
    try:
        workload.start()
        workload.warm()
        if trace_dir is not None:
            if arguments.workload == "cold-paper":
                import tracing

                workload.trace = tracing.install(trace_dir)
            open(os.path.join(trace_dir, "armed"), "w").close()
        before = workload.service_counters()
        tally = workload.phase(random.Random(arguments.seed))
        after = workload.service_counters()
        if workload.trace is not None:
            workload.trace.uninstall()
    finally:
        workload.stop()
    delta = None
    if before is not None:
        delta = {key: after[key] - before[key] for key in before}
    return workload, tally, delta


def end_to_end(arguments, work):
    workload, tally, _ = measure(arguments, work)
    setups = [workload.setup.start_s] + extra_setups(arguments, work)
    setup_s = statistics.median(setups) + workload.setup.warmup_s
    metrics = tally.end_to_end(setup_s, children_peak_rss_mb())
    report(arguments, tally, [
        f"setup_s = median start of {', '.join(f'{s:.3f}' for s in setups)}"
        f" + warm-up {workload.setup.warmup_s:.3f}",
        f"{len(tally.latency)} answers in {len(tally.repeats)} repeats; latencies"
        f" are medians over repeats, throughput is over the whole phase;"
        f" latency_tail_ms is p{tally.tail_percentile():.2f}",
    ])
    return tally, metrics


def per_layer(arguments, work):
    """An untraced and a traced run of the same work; per-layer metrics."""
    plain_workload, plain, _ = measure(arguments, work)
    plain_metrics = plain.end_to_end(setup_seconds(plain_workload.setup), 0.0)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=work)
    workload, tally, delta = measure(arguments, work, trace_dir)
    traced_metrics = tally.end_to_end(setup_seconds(workload.setup), 0.0)
    import tracing

    records = tracing.read_records(trace_dir)
    metrics = layer_metrics(records, plain_workload, workload, plain, tally, delta)
    for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"):
        value, unit = traced_metrics[name]
        metrics[f"trace.overhead.{name}"] = (value - plain_metrics[name][0], unit)
    report(arguments, tally, [
        f"untraced {name} {plain_metrics[name][0]:.4f}, traced {traced_metrics[name][0]:.4f}"
        for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms")
    ])
    plain.attempted += tally.attempted
    plain.failed += tally.failed
    plain.unexpected += tally.unexpected
    plain.failures += tally.failures
    return plain, metrics


#: Functions whose call counts and times are reported, per layer.
CALLS_AND_SECONDS = (
    "polyhedra.eliminate", "polyhedra.minimize_constraints", "polyhedra.convex_hull",
    "polyhedra.is_satisfiable", "polyhedra.entails", "polyhedra.maximize",
    "abstraction.abstract", "formulas.to_dnf", "core.analyze_component",
    "analysis.summarize_procedure", "analysis.summarize_loop",
    "lang.parse_program", "lang.build_call_graph", "engine.execute_task",
)
SECONDS_ONLY = (
    "core.run_height_analysis", "core.compute_depth_bound",
    "core.run_two_region_analysis", "core.check_assertions", "core.cost_bound",
)
SELF_TIMES = ("polyhedra", "abstraction", "formulas", "core", "analysis", "recurrence")
MEMO_TABLES = (
    "fm.eliminate", "fm.minimize", "lp.is_satisfiable", "lp.entails",
    "abstraction.abstract", "abstraction.satisfiable",
)


def setup_seconds(setup):
    return setup.start_s + setup.warmup_s


def layer_metrics(records, plain_workload, workload, plain, tally, delta):
    """Per-layer metrics of a traced phase.

    ``plain_workload``/``plain`` are the untraced run of the same work,
    which gives the set-up split and the per-row times;
    ``workload``/``tally`` are the traced run, ``delta`` its service
    counter differences.
    """
    spans, counted = records["spans"], records["counters"]
    metrics = {}
    for name in CALLS_AND_SECONDS:
        calls, seconds, _ = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (seconds, "s")
    for name in SECONDS_ONLY:
        metrics[f"{name}.s"] = (spans.get(name, (0, 0.0, 0.0))[1], "s")
    metrics["polyhedra.linprog.calls"] = (spans.get("polyhedra.linprog", (0,))[0], "count")
    metrics["formulas.to_dnf.cubes"] = (counted.get("formulas.to_dnf.cubes", 0), "count")
    for kernel in ("int64", "bignum", "fallbacks"):
        key = f"polyhedra.simplex.{kernel}"
        metrics[key] = (counted.get(key, 0), "count")
    for table in MEMO_TABLES:
        hits = counted.get(f"memo.{table}.hits", 0)
        lookups = hits + counted.get(f"memo.{table}.misses", 0)
        metrics[f"polyhedra.memo.{table}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"polyhedra.memo.{table}.lookups"] = (lookups, "count")
    for layer in SELF_TIMES:
        own = sum(v[2] for n, v in spans.items() if n.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    delta = delta or {}
    procedures = delta.get("reused", 0) + delta.get("analysed", 0)
    metrics["core.incremental.reused_share"] = (
        delta.get("reused", 0) / procedures if procedures else 0.0, "ratio")
    metrics["core.incremental.procedures"] = (procedures, "count")
    execute_s = spans.get("engine.execute_task", (0, 0.0, 0.0))[1]
    batch_s = sum(end - start for start, end, _ in tally.repeats)
    metrics["engine.fork_s"] = (batch_s - execute_s if isinstance(workload, ColdPaper) else 0.0, "s")
    lookups = delta.get("requests", 0)
    metrics["engine.cache.hit_ratio"] = (
        delta.get("cache_hits", 0) / lookups if lookups else 0.0, "ratio")
    metrics["engine.cache.lookups"] = (lookups, "count")
    served = isinstance(workload, ServedWorkload)
    worker_ms = [1000 * w for w in tally.worker]
    frontend_ms = [1000 * l - w for l, w in zip(tally.latency, worker_ms)]
    metrics["service.worker_ms.p50"] = (tally.percentile(50, worker_ms) if served else 0.0, "ms")
    metrics["service.frontend_ms.p50"] = (tally.percentile(50, frontend_ms) if served else 0.0, "ms")
    in_flight = counted.get("service.in_flight.max", 0)
    metrics["service.queue_depth.max"] = (max(0, in_flight - 1), "count")
    metrics["service.rejected_429"] = (delta.get("rejected_429", 0), "count")
    metrics["service.deadline_504"] = (delta.get("deadline_504", 0), "count")
    metrics["loadgen.lag_tail_ms"] = (1000 * tally.percentile(tally.tail_percentile(), tally.lag), "ms")
    metrics["setup.import_s"] = (plain_workload.setup.import_s, "s")
    metrics["setup.pool_ready_s"] = (plain_workload.setup.pool_ready_s, "s")
    metrics["setup.warmup_s"] = (plain_workload.setup.warmup_s, "s")
    for index, task in enumerate(plain.tasks):
        own = [l for l, r in zip(plain.latency, plain.row) if r == index]
        metrics[f"program.{task.name}.s"] = (statistics.median(own) if own else 0.0, "s")
    return metrics


def report(arguments, tally, notes):
    print(
        f"{arguments.workload}: {tally.attempted} requests, {tally.failed} failed"
        f" (failed_share {tally.failed / max(tally.attempted, 1):.4f}),"
        f" {tally.mismatched} verdicts differ from the paper"
        f" (mismatch_share {tally.mismatched / max(tally.answered, 1):.4f})"
    )
    for line in notes + tally.failures[:5] + tally.unexpected[:5]:
        print(f"  {line}")


def setup_only(arguments, work):
    workload = CLASSES[arguments.workload](arguments.seed, arguments.seconds, work)
    try:
        workload.start()
    finally:
        workload.stop()
    return {"start_s": workload.setup.start_s}


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    arguments = parse_arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources at {SRC}/repro; run from a checkout", file=sys.stderr)
        return 2
    # String hashing orders sets, and with it which projections and LP
    # queries the polyhedral layer makes; the seed fixes it, so one seed
    # gives the same calls and memo hits in every run.
    hash_seed = str(arguments.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.path[:0] = [SRC, HERE]
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=scratch)
    os.environ["TMPDIR"] = tempfile.tempdir = work
    try:
        if arguments.setup_only:
            print(json.dumps(setup_only(arguments, work)))
            return 0
        if arguments.trace:
            tally, metrics = per_layer(arguments, work)
        else:
            tally, metrics = end_to_end(arguments, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is using it
            pass
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    result = {
        "correct": not tally.unexpected and tally.answered > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
