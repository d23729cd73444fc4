"""Blocking client for the simulation service.

Two layers:

* :class:`ServeClient` — the wire client: one HTTP request per call
  (the server closes connections after each response), JSON envelopes
  parsed into protocol types, and a :meth:`ServeClient.run` convenience
  that submits a batch, honours ``retry_after`` backpressure, polls to
  terminal states and collects results.
* :class:`RemoteRunner` — a :class:`~repro.runtime.ParallelRunner`
  whose ``run_many`` ships every pending point to a daemon instead of a
  local worker pool.  Figures and suites built on the runner work
  unchanged (``repro suite --server``, ``repro figure --server``):
  stats come back as the same :class:`~repro.uarch.SimStats` values the
  daemon's runner produced, and failures surface as the same
  :class:`~repro.runtime.FailedResult` holes a local ``--keep-going``
  sweep would report (:meth:`ErrorInfo.to_failed_result` builds them).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime import ParallelRunner, ResultCache, RunSpec
from ..uarch import SimStats
from . import protocol
from .protocol import ErrorInfo, JobStatus

#: outcome of one spec: terminal status + stats payload (None on failure)
Outcome = Tuple[JobStatus, Optional[dict]]

#: status-poll interval while waiting on the daemon
POLL_INTERVAL = 0.1

#: wire-level reconnect attempts after a dropped connection / bare 5xx
#: (jittered exponential backoff between attempts — generous enough to
#: ride out a daemon restart, bounded enough to fail a dead one fast)
RECONNECT_TRIES = 8

#: first reconnect delay and the cap on its doubling, in seconds (read
#: at each retry, so a test can shrink them)
BACKOFF_BASE = 0.25
BACKOFF_CAP = 4.0


class ServeError(RuntimeError):
    """The daemon is unreachable or answered outside the protocol.

    ``kind`` carries the server's :class:`ErrorInfo` kind when the
    failure was a protocol-level refusal ('' for wire-level failures),
    so callers can tell *unknown job id* (reattach and resubmit) from
    *cannot reach* (give up after the reconnect budget).
    """

    def __init__(self, message: str, kind: str = ""):
        super().__init__(message)
        self.kind = kind


def parse_address(addr: str) -> Tuple[str, int]:
    """``host``, ``host:port`` or ``http://host:port`` -> (host, port)."""
    addr = addr.strip()
    for prefix in ("http://", "https://"):
        if addr.startswith(prefix):
            addr = addr[len(prefix):]
    addr = addr.rstrip("/")
    host, _, port = addr.partition(":")
    try:
        return host or "127.0.0.1", (int(port) if port
                                     else protocol.DEFAULT_PORT)
    except ValueError:
        raise ServeError(f"bad server address {addr!r} "
                         f"(expected host[:port])") from None


class ServeClient:
    """Synchronous wire client for one daemon address.

    Resilient by default: every request runs under a per-request
    ``timeout`` and a dropped connection (or a bare 5xx outside the
    JSON protocol) is retried up to ``reconnect_tries`` times with
    jittered exponential backoff — enough to ride out a daemon restart
    mid-sweep.  Retrying a submit is safe by construction: jobs are
    content-addressed (:func:`repro.runtime.keys.run_key`), so a
    resubmission coalesces onto the journaled original instead of
    duplicating the simulation.  ``on_event`` (optional) receives
    human-readable resilience events — reconnect attempts, reattaches,
    degraded-server notices — for a client's stderr status stream.
    """

    def __init__(self, addr: str, timeout: float = 30.0,
                 reconnect_tries: int = RECONNECT_TRIES,
                 on_event: Optional[Callable[[str], None]] = None):
        self.host, self.port = parse_address(addr)
        self.timeout = timeout
        self.reconnect_tries = max(0, reconnect_tries)
        self.on_event = on_event
        self._rng = random.Random()
        #: chaos seam: when set, called as ``f(method, path)`` after the
        #: request is sent; returning True drops the connection before
        #: the response is read (exercises the reconnect path exactly
        #: where a real connection reset would land)
        self.chaos_drop: Optional[Callable[[str, str], bool]] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _event(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)

    # -- wire ------------------------------------------------------------
    def _request_once(self, method: str, path: str,
                      body: Optional[dict] = None) -> Tuple[int, object]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            if self.chaos_drop is not None \
                    and self.chaos_drop(method, path):
                raise ConnectionResetError(
                    "chaos: connection dropped after send")
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        ctype = resp.headers.get("Content-Type", "")
        if ctype.startswith("application/json"):
            try:
                return resp.status, json.loads(raw)
            except ValueError:
                raise ServeError(
                    f"malformed JSON from {self.base_url}{path}") from None
        return resp.status, raw.decode("utf-8", "replace")

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Tuple[int, object]:
        """One request with bounded jittered-backoff reconnect.

        Wire-level problems (connection refused/reset, timeouts, and
        5xx responses that carry no protocol envelope) are retried;
        protocol-level answers — including error envelopes — pass
        through untouched for the endpoint methods to interpret.
        """
        last: object = None
        for attempt in range(self.reconnect_tries + 1):
            try:
                status, parsed = self._request_once(method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                last = exc
            else:
                enveloped = isinstance(parsed, dict) and "ok" in parsed
                if status >= 500 and not enveloped:
                    last = f"HTTP {status} without a protocol envelope"
                else:
                    return status, parsed
            if attempt >= self.reconnect_tries:
                break
            delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
            delay *= 0.5 + self._rng.random()   # jitter: 0.5x..1.5x
            self._event(f"connection to {self.base_url} failed ({last}); "
                        f"retrying in {delay:.1f}s "
                        f"({attempt + 1}/{self.reconnect_tries})")
            time.sleep(delay)
        raise ServeError(
            f"cannot reach repro serve at {self.base_url} after "
            f"{self.reconnect_tries + 1} attempt(s): {last}")

    @staticmethod
    def _envelope(status: int, body: object) -> dict:
        if not isinstance(body, dict) or "ok" not in body:
            raise ServeError(
                f"unexpected response (HTTP {status}): {body!r}")
        return body

    # -- endpoints -------------------------------------------------------
    def submit(self, specs: Sequence[RunSpec]) -> List[dict]:
        """Submit a batch; returns the per-job accept/reject decisions
        (``{"accepted", "id"?, "coalesced"?, "error"?}`` per spec)."""
        body = {"v": protocol.PROTOCOL_VERSION,
                "jobs": [protocol.wire_dict(s) for s in specs]}
        status, raw = self._request(
            "POST", f"{protocol.API_PREFIX}/submit", body)
        env = self._envelope(status, raw)
        if not env.get("ok"):
            err = ErrorInfo.from_dict(env.get("error"))
            raise ServeError(f"submit rejected: {err.message}",
                             kind=err.kind)
        jobs = env.get("jobs")
        if not isinstance(jobs, list) or len(jobs) != len(specs):
            raise ServeError("submit response does not match the batch")
        return jobs

    def status(self, job_id: str) -> JobStatus:
        status, raw = self._request(
            "GET", f"{protocol.API_PREFIX}/status?id={job_id}")
        env = self._envelope(status, raw)
        if not env.get("ok"):
            err = ErrorInfo.from_dict(env.get("error"))
            raise ServeError(f"status {job_id}: {err.message}",
                             kind=err.kind)
        return JobStatus.from_dict(env.get("job"))

    def result(self, job_id: str) -> Outcome:
        """Terminal (status, stats) for one job; stats is None unless
        the job finished ``done``.  Frees the ticket server-side."""
        status, raw = self._request(
            "GET", f"{protocol.API_PREFIX}/result?id={job_id}")
        env = self._envelope(status, raw)
        if not env.get("ok"):
            err = ErrorInfo.from_dict(env.get("error"))
            raise ServeError(f"result {job_id}: {err.message}",
                             kind=err.kind)
        job = JobStatus.from_dict(env.get("job"))
        stats = env.get("stats")
        return job, stats if isinstance(stats, dict) else None

    def health(self) -> dict:
        status, raw = self._request("GET", "/healthz")
        return self._envelope(status, raw)

    # -- convenience -----------------------------------------------------
    def run(self, specs: Sequence[RunSpec],
            on_update: Optional[Callable[[str, JobStatus], None]] = None,
            poll: float = POLL_INTERVAL,
            backoff_tries: int = 60,
            on_poll: Optional[Callable[[int, int], None]] = None,
            ) -> List[Outcome]:
        """Submit, ride out backpressure and restarts, poll to completion.

        Per-spec, order-preserving.  Rejections with a ``retry_after``
        hint (queue full, degraded executor) are resubmitted up to
        ``backoff_tries`` rounds; permanent refusals (bad request,
        draining) become synthetic ``failed`` outcomes so
        sweeps degrade like ``--keep-going`` instead of aborting.

        Survives a server restart mid-sweep: when a poll answers
        *unknown job id* (the restarted daemon re-enqueued the work
        from its journal under fresh ids), the spec is resubmitted —
        content-addressing coalesces it onto the replayed job, so no
        simulation is duplicated and the final outcomes are identical
        to an uninterrupted run.

        ``on_update(id, status)`` fires on every observed state change;
        ``on_poll(done, total)`` fires once per poll round (the chaos
        harness's injection point).
        """
        outcomes: List[Optional[Outcome]] = [None] * len(specs)
        waiting: Dict[str, int] = {}          # job id -> spec index
        todo = list(range(len(specs)))
        tries = 0
        seen: Dict[str, str] = {}             # job id -> last state shown
        while todo or waiting:
            if todo:
                decisions = self.submit([specs[i] for i in todo])
                retry: List[int] = []
                wait_hint = 0.0
                for i, decision in zip(todo, decisions):
                    if decision.get("accepted"):
                        job_id = str(decision.get("id"))
                        waiting[job_id] = i
                        if on_update:
                            on_update(job_id, JobStatus(
                                id=job_id, kernel=specs[i].kernel,
                                state=str(decision.get("state",
                                                       protocol.QUEUED))))
                        continue
                    err = ErrorInfo.from_dict(decision.get("error"))
                    if err.kind in ("rejected", "degraded") \
                            and tries < backoff_tries:
                        if err.kind == "degraded":
                            self._event(f"server degraded: {err.message}")
                        retry.append(i)
                        wait_hint = max(wait_hint, err.retry_after)
                        continue
                    outcomes[i] = (JobStatus(
                        id="", kernel=specs[i].kernel,
                        state=protocol.FAILED, source="failed",
                        error=err), None)
                todo = retry
                if todo:
                    tries += 1
                    time.sleep(max(0.1, wait_hint or poll))
            reattach: List[int] = []
            for job_id in list(waiting):
                try:
                    st = self.status(job_id)
                except ServeError as exc:
                    if exc.kind == "not-found":
                        # The server restarted and this id died with it;
                        # the job itself was journaled and replayed.
                        reattach.append(waiting.pop(job_id))
                        continue
                    raise
                if on_update and seen.get(job_id) != st.state:
                    seen[job_id] = st.state
                    on_update(job_id, st)
                if st.terminal:
                    idx = waiting.pop(job_id)
                    try:
                        outcomes[idx] = self.result(job_id)
                    except ServeError as exc:
                        if exc.kind != "not-found":
                            raise
                        reattach.append(idx)
            if reattach:
                self._event(f"server lost {len(reattach)} job id(s) "
                            f"(restart?); resubmitting to reattach")
                todo.extend(reattach)
            if on_poll is not None:
                on_poll(sum(1 for o in outcomes if o is not None),
                        len(specs))
            if waiting and not todo:
                time.sleep(poll)
        assert all(o is not None for o in outcomes)
        return [o for o in outcomes if o is not None]


class RemoteRunner(ParallelRunner):
    """A ``ParallelRunner`` whose misses execute on a remote daemon.

    The local memo still deduplicates within the process; everything
    else — disk cache, worker pool, coalescing — lives on the server.
    The inherited source record counts a local memo hit as ``memo`` and
    every served job under the daemon's per-job ``source``;
    ``runtime_summary`` prints the local hits apart from the served
    jobs, so it stays honest about where results came from.
    """

    def __init__(self, addr: str, scale: float, seed: int,
                 keep_going: bool = False,
                 on_update: Optional[Callable[[str, JobStatus],
                                              None]] = None,
                 on_event: Optional[Callable[[str], None]] = None,
                 sampling: Optional[str] = None):
        # jobs=1 and a disabled cache: this process does no local
        # simulation and must not shadow the daemon's persistent cache.
        super().__init__(scale=scale, seed=seed, jobs=1,
                         cache=ResultCache(enabled=False),
                         keep_going=keep_going, sampling=sampling)
        self.client = ServeClient(addr, on_event=on_event)
        self.on_update = on_update
        #: results by spec identity (the daemon owns the canonical keys)
        self._spec_memo: Dict[RunSpec, SimStats] = {}

    def run_many(self, points: Sequence[RunSpec]) -> List[SimStats]:
        """Resolve runs via the daemon, order-preserving.

        Deduplication is by spec identity, *not* the canonical cache
        key: a thin client never builds programs locally — the daemon
        derives the shared key and coalesces — so two spellings of one
        run cost at most one wire round-trip each, never a local kernel
        build.
        """
        resolved: Dict[RunSpec, SimStats] = {}
        order: List[RunSpec] = []
        pending: List[RunSpec] = []
        for point in points:
            spec = self._as_spec(point)
            order.append(spec)
            if spec in resolved or spec in pending:
                continue
            st = self._spec_memo.get(spec)
            if st is not None:
                self._note_source(spec, "memo")
                resolved[spec] = st
                continue
            pending.append(spec)
        if pending:
            outcomes = self.client.run(pending, on_update=self.on_update)
            for spec, (status, stats) in zip(pending, outcomes):
                if status.state == protocol.DONE and stats is not None:
                    st = SimStats.from_dict(stats)
                    self._spec_memo[spec] = resolved[spec] = st
                    self._note_source(spec, status.source or status.state)
                    continue
                err = status.error or ErrorInfo(
                    kind="failed", message=f"job ended {status.state} "
                                           f"without stats")
                failed = err.to_failed_result(spec.kernel, spec.scale,
                                              spec.seed)
                if not self.keep_going:
                    raise ServeError(f"remote job failed: "
                                     f"{failed.describe()}")
                self.failures.append(failed)
                self._note_source(spec, "failed")
                resolved[spec] = failed
        return [resolved[spec] for spec in order]

    def runtime_summary(self) -> str:
        """One-line rendering of the source record (nonzero names).

        Every served job either entered the spec memo or was kept as a
        failure, so the rest of the record's ``memo`` are local hits
        that never reached the daemon."""
        served = len(self._spec_memo) + len(self.failures)
        local = sum(self.tally.values()) - served
        counts = dict(self.tally, memo=self.tally["memo"] - local)
        parts = [f"runtime: {served} job(s) served by "
                 f"{self.client.base_url}"]
        parts.extend(f"{n} {source}" for source, n in counts.items()
                     if n and source != "failed")
        if local:
            parts.append(f"{local} local memo hit(s)")
        if counts["failed"]:
            parts.append(f"{counts['failed']} FAILED")
        return ", ".join(parts)
