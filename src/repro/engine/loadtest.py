"""Open-loop load generation against a running ``repro serve``.

``repro loadtest --url URL --rps N --duration S`` measures the service the
way ``repro profile`` measures the engines: drive a known load, record
what happened into the append-only perf history
(``benchmarks/perf/BENCH_service.json``), so the throughput/latency
trajectory of the service front-end lives in the repository next to the
cold/warm engine numbers in ``BENCH_engines.json``.

The generator is **open loop**: request *i* is due at ``start + i/rps``
regardless of whether earlier requests have answered.  A closed loop (send
the next request when the last returns) hides overload — a saturated
server slows the generator down with itself and the measured latency
stays flat.  Open-loop load keeps arriving like real clients do, so queue
growth shows up as rising latency, then 429s once the admission queue
fills.  ``concurrency`` worker threads (each holding one keep-alive
:class:`~repro.service.client.ServiceClient` connection) pull due requests
from the shared schedule; when all of them are stuck waiting on the
server, further due requests simply start late.  Latency is measured from
each request's due instant, so the time a request spent queued behind a
stalled one counts (timing from the actual send would hide exactly the
queueing open-loop load exists to expose); the send lag is reported too
(``lag_p95_ms``), so an under-provisioned *generator* is visible.

Every sample records its status class: 2xx (served), 429 (backpressure),
504 (deadline expired — when ``deadline_ms`` is set), other HTTP errors,
and transport errors.  Throughput counts only 2xx.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping, Optional

from ..service.client import ServiceClient, ServiceError, ServiceHTTPError
from .profile import percentile

__all__ = [
    "DEFAULT_PROGRAM",
    "loadtest_entry",
    "run_loadtest",
]

#: The request every worker posts unless the caller supplies a body: small
#: enough that throughput exercises the HTTP front-end and pool dispatch
#: rather than the analyzer, but still a real end-to-end analysis.
DEFAULT_PROGRAM = (
    "int main(int n) { assume(n >= 0); int r = n + 1;"
    " assert(r >= 1); return r; }"
)


def _worker(
    schedule_start: float,
    interval: float,
    total: int,
    cursor: list[int],
    cursor_lock: threading.Lock,
    samples: list[tuple[int, float, float]],
    samples_lock: threading.Lock,
    make_client: Callable[[], ServiceClient],
    document: Mapping[str, Any],
    deadline_ms: Optional[float],
) -> None:
    """One generator thread: pull due slots, fire, record.

    Samples are ``(status, latency_seconds, lag_seconds)`` where status 0
    means the request never completed an HTTP conversation, latency runs
    from the request's scheduled (due) instant to its answer, and lag is
    how far past that instant the request was actually sent.
    """
    client = make_client()
    try:
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= total:
                    return
                cursor[0] = index + 1
            due = schedule_start + index * interval
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lag = max(0.0, time.monotonic() - due)
            try:
                response = client.analyze(document, deadline_ms=deadline_ms)
                status = response.status
            except ServiceHTTPError as error:
                status = error.status
            except ServiceError:
                status = 0
            # From the due instant, not the send: a request that queued
            # behind a stall waited for the service, and that is latency.
            latency = time.monotonic() - due
            with samples_lock:
                samples.append((status, latency, lag))
    finally:
        client.close()


def run_loadtest(
    url: str,
    rps: float = 20.0,
    duration: float = 10.0,
    concurrency: int = 8,
    deadline_ms: Optional[float] = None,
    document: Optional[Mapping[str, Any]] = None,
    timeout: float = 60.0,
    client_factory: Callable[..., ServiceClient] = ServiceClient,
) -> dict[str, Any]:
    """Drive ``rps`` requests/second at ``url`` for ``duration`` seconds.

    Returns the report document (also the shape recorded into
    ``BENCH_service.json`` by :func:`loadtest_entry`): request/response
    counts by status class, 2xx throughput, latency percentiles over the
    served responses, and scheduling lag.  Raises ``ValueError`` on
    nonsensical parameters; transport failures are *data* (counted as
    ``unreachable``), not exceptions — a dead server is a valid finding.
    """
    if rps <= 0:
        raise ValueError(f"--rps must be positive, got {rps!r}")
    if duration <= 0:
        raise ValueError(f"--duration must be positive, got {duration!r}")
    if concurrency < 1:
        raise ValueError(f"--concurrency must be at least 1, got {concurrency!r}")
    total = max(1, int(rps * duration))
    interval = 1.0 / rps
    body = dict(document) if document is not None else {"source": DEFAULT_PROGRAM}
    cursor = [0]
    cursor_lock = threading.Lock()
    samples: list[tuple[int, float, float]] = []
    samples_lock = threading.Lock()
    make_client = lambda: client_factory(url, timeout=timeout)  # noqa: E731
    schedule_start = time.monotonic()
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                schedule_start,
                interval,
                total,
                cursor,
                cursor_lock,
                samples,
                samples_lock,
                make_client,
                body,
                deadline_ms,
            ),
            daemon=True,
        )
        for _ in range(min(concurrency, total))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - schedule_start

    served = [s for s in samples if 200 <= s[0] < 300]
    latencies = [latency for _, latency, _ in served]
    lags = [lag for _, _, lag in samples]
    statuses: dict[str, int] = {}
    for status, _, _ in samples:
        key = str(status) if status else "unreachable"
        statuses[key] = statuses.get(key, 0) + 1

    def ms(value: Optional[float]) -> Optional[float]:
        return None if value is None else round(value * 1000.0, 3)

    return {
        "url": url,
        "rps_target": rps,
        "duration_target": duration,
        "concurrency": len(threads),
        "deadline_ms": deadline_ms,
        "elapsed_seconds": round(elapsed, 3),
        "requested": total,
        "completed": len(samples) - statuses.get("unreachable", 0),
        "served_2xx": len(served),
        "rejected_429": statuses.get("429", 0),
        "deadline_504": statuses.get("504", 0),
        "unreachable": statuses.get("unreachable", 0),
        "statuses": dict(sorted(statuses.items())),
        "throughput_rps": round(len(served) / elapsed, 3) if elapsed else 0.0,
        "latency": {
            "p50_ms": ms(percentile(latencies, 50)),
            "p95_ms": ms(percentile(latencies, 95)),
            "p99_ms": ms(percentile(latencies, 99)),
            "mean_ms": ms(sum(latencies) / len(latencies) if latencies else None),
            "max_ms": ms(max(latencies) if latencies else None),
        },
        "lag_p95_ms": ms(percentile(lags, 95)),
    }


def loadtest_entry(report: Mapping[str, Any], label: str = "") -> dict[str, Any]:
    """Wrap one loadtest report as a BENCH_service.json perf entry.

    The ``rows`` mirror the suite/micro entry shape (name + seconds) so
    :func:`repro.engine.profile.compare_entries` can diff service entries
    too; the full report rides along under ``"report"``.  Service entries
    are informational (CI records them without gating), like the
    ``engines`` comparisons.
    """
    from .profile import _timestamp

    latency = report.get("latency", {})
    rows = []
    for quantile in ("p50_ms", "p95_ms", "p99_ms"):
        value = latency.get(quantile)
        if value is not None:
            rows.append(
                {"name": f"analyze/{quantile[:-3]}", "seconds": round(value / 1000, 5)}
            )
    return {
        "kind": "service",
        "suite": "service",
        "label": label,
        "created": _timestamp(),
        "rows": rows,
        "totals": {
            "throughput_rps": report.get("throughput_rps"),
            "served_2xx": report.get("served_2xx"),
            "rejected_429": report.get("rejected_429"),
            "deadline_504": report.get("deadline_504"),
            "requested": report.get("requested"),
        },
        "report": dict(report),
    }
