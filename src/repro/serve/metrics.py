"""Live metrics for the simulation service.

Two export faces over one counter store:

* ``/metrics`` — Prometheus text format (version 0.0.4): server-level
  counters and gauges plus a latency summary with p50/p95 quantiles;
* ``/healthz`` — a JSON snapshot for humans and smoke tests.

Per-simulation observability stays with the Observer taxonomy (CPI
stacks, audit trails — attach ``--observe`` to a run); this module adds
the *server-level* signals those can't see: queue depth, in-flight
batches, coalesce fan-in, throughput and worker restarts (fed by
:func:`repro.runtime.pool_restart_count`).  Where results came from is
not counted here: both faces render the executor's merged runner
source record (``tally``, :data:`repro.runtime.SOURCES` names).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..runtime import pool_restart_count

#: counters every server instance exposes (zero until first increment)
COUNTER_NAMES = (
    "requests", "jobs_submitted", "jobs_coalesced", "jobs_completed",
    "jobs_failed", "jobs_cancelled", "jobs_rejected", "jobs_replayed",
    "jobs_rejected_degraded", "circuit_trips",
)

#: every state ``/healthz`` can report (exported as a one-hot gauge)
SERVER_STATES = ("ok", "replaying-journal", "degraded:circuit-open",
                 "draining")


def _quantile(sorted_xs: List[float], q: float) -> float:
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, max(0, round(q * (len(sorted_xs) - 1))))
    return sorted_xs[idx]


class ServerMetrics:
    """Counter/gauge store with a bounded latency reservoir."""

    def __init__(self, reservoir: int = 2048):
        self.started_at = time.monotonic()
        self.counters: Dict[str, int] = {k: 0 for k in COUNTER_NAMES}
        #: end-to-end (submit -> terminal) job latencies, newest last
        self._latencies: Deque[float] = deque(maxlen=reservoir)
        self._latency_count = 0
        self._latency_sum = 0.0

    # -- recording -------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)
        self._latency_count += 1
        self._latency_sum += seconds

    # -- derived ---------------------------------------------------------
    @property
    def uptime(self) -> float:
        return time.monotonic() - self.started_at

    def latency_quantiles(self) -> Tuple[float, float]:
        xs = sorted(self._latencies)
        return _quantile(xs, 0.50), _quantile(xs, 0.95)

    def sims_per_second(self, sims_run: int) -> float:
        return sims_run / self.uptime if self.uptime > 0 else 0.0

    # -- export ----------------------------------------------------------
    def snapshot(self, queue_snapshot: Dict[str, int],
                 tally: Dict[str, int],
                 state: str, jobs: Optional[int],
                 journal: Optional[Dict[str, int]] = None,
                 ) -> Dict[str, object]:
        """The ``/healthz`` JSON payload.

        ``state`` is one of :data:`SERVER_STATES`; ``journal`` is the
        server's crash-safety sub-report (epoch counts, replay
        tallies)."""
        p50, p95 = self.latency_quantiles()
        out: Dict[str, object] = {
            "status": state,
            "uptime_seconds": round(self.uptime, 3),
            "jobs": jobs,
            "queue": dict(queue_snapshot),
            "counters": dict(self.counters),
            "sims_run": tally["sim"],
            "cache_hits": tally["disk"] + tally["memo"] + tally["derived"],
            "sims_per_second": round(self.sims_per_second(tally["sim"]), 3),
            "worker_restarts": pool_restart_count(),
            "latency_seconds": {"p50": round(p50, 6), "p95": round(p95, 6),
                                "count": self._latency_count},
        }
        if journal is not None:
            out["journal"] = dict(journal)
        return out

    def render_prometheus(self, queue_snapshot: Dict[str, int],
                          tally: Dict[str, int],
                          state: str,
                          journal: Optional[Dict[str, int]] = None) -> str:
        """The ``/metrics`` exposition (Prometheus text format 0.0.4)."""
        p50, p95 = self.latency_quantiles()
        lines: List[str] = []

        def metric(name: str, kind: str, help_: str, value: float,
                   labels: str = "") -> None:
            lines.append(f"# HELP repro_{name} {help_}")
            lines.append(f"# TYPE repro_{name} {kind}")
            val = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"repro_{name}{labels} {val}")

        metric("up", "gauge", "1 while serving, 0 while draining.",
               0 if state == "draining" else 1)
        lines.append("# HELP repro_server_state 1 for the daemon's "
                     "current state, 0 otherwise.")
        lines.append("# TYPE repro_server_state gauge")
        for known in SERVER_STATES:
            lines.append(f'repro_server_state{{state="{known}"}} '
                         f'{1 if known == state else 0}')
        metric("uptime_seconds", "gauge",
               "Seconds since the daemon started.", self.uptime)
        metric("queue_depth", "gauge",
               "Entries queued for execution (after coalescing).",
               queue_snapshot["depth"])
        metric("inflight", "gauge",
               "Entries currently executing on the pool.",
               queue_snapshot["inflight"])
        for name, help_ in (
                ("requests", "HTTP requests handled."),
                ("jobs_submitted", "Submissions admitted to the queue."),
                ("jobs_coalesced",
                 "Submissions that fanned in to an in-flight twin."),
                ("jobs_completed", "Submissions finished with stats."),
                ("jobs_failed", "Submissions finished with a failure."),
                ("jobs_cancelled", "Submissions cancelled (client/drain)."),
                ("jobs_rejected", "Submissions refused by backpressure."),
                ("jobs_replayed", "Incomplete jobs re-enqueued from the "
                                  "journal at startup."),
                ("jobs_rejected_degraded",
                 "Submissions refused while the circuit breaker was "
                 "open."),
                ("circuit_trips", "Times the executor circuit breaker "
                                  "opened.")):
            metric(f"{name}_total", "counter", help_,
                   self.counters.get(name, 0))
        if journal is not None:
            metric("server_restarts_total", "counter",
                   "Daemon restarts recovered through the job journal.",
                   max(0, int(journal.get("epochs", 1)) - 1))
            metric("journal_records_total", "counter",
                   "Verified records replayed from the journal at "
                   "startup.", int(journal.get("records", 0)))
            metric("journal_quarantined_total", "counter",
                   "Torn/corrupt journal lines quarantined at startup.",
                   int(journal.get("quarantined", 0)))
        metric("sims_total", "counter",
               "Simulations that produced stats.", tally["sim"])
        metric("cache_hits_total", "counter",
               "Jobs answered without simulating, by layer.",
               tally["disk"], '{layer="disk"}')
        for layer in ("memo", "derived"):
            lines.append(f'repro_cache_hits_total{{layer="{layer}"}} '
                         f'{tally[layer]}')
        metric("worker_restarts_total", "counter",
               "Worker-pool rebuilds after transient failures.",
               pool_restart_count())
        metric("sims_per_second", "gauge",
               "Simulation throughput since startup.",
               self.sims_per_second(tally["sim"]))
        lines.append("# HELP repro_job_latency_seconds End-to-end job "
                     "latency (submit to terminal state).")
        lines.append("# TYPE repro_job_latency_seconds summary")
        lines.append(f'repro_job_latency_seconds{{quantile="0.5"}} '
                     f'{p50:.6g}')
        lines.append(f'repro_job_latency_seconds{{quantile="0.95"}} '
                     f'{p95:.6g}')
        lines.append(f"repro_job_latency_seconds_sum "
                     f"{self._latency_sum:.6g}")
        lines.append(f"repro_job_latency_seconds_count "
                     f"{self._latency_count}")
        return "\n".join(lines) + "\n"
