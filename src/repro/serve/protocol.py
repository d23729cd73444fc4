"""Wire protocol for the simulation service (version 2).

The daemon speaks a minimal HTTP/1.1 + JSON dialect (stdlib only, one
request per connection).  Endpoints (the job API is rooted at ``/v1``):

========================  =====================================================
``POST /v1/submit``       submit a batch of run specs (:func:`wire_dict`);
                          per-job accept / reject decisions come back in one
                          response
``GET  /v1/status?id=``   current :class:`JobStatus` of one submission
``GET  /v1/result?id=``   terminal result: ``SimStats`` payload or an
                          :class:`ErrorInfo` envelope
``GET  /healthz``         the daemon's state (HTTP 200 ``ok``, 503 otherwise),
                          queue, counters and source record
========================  =====================================================

Any other path answers 404 with a ``not-found`` error envelope.

Every JSON body carries ``"v": PROTOCOL_VERSION`` and ``"ok"``; failures
use one explicit error envelope (:class:`ErrorInfo`) whose ``kind``
vocabulary covers both admission outcomes (``rejected``, ``degraded``,
``draining``) and execution outcomes — the latter reusing the runtime
failure classes from DESIGN.md §8 (a :class:`~repro.runtime.FailedResult`
maps onto ``kind="failed"`` with its ``phase`` and ``attempts``
preserved, so a client sees exactly what a local ``--keep-going`` sweep
would have reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cli import DEFAULT_PORT  # noqa: F401  (re-exported)
from ..runtime import FailedResult, RunSpec

#: bump on any incompatible wire change; requests carry it and the
#: server rejects other versions explicitly instead of misparsing them
#: (v2 dropped v1's ``priority``/``client`` job fields)
PROTOCOL_VERSION = 2

#: URL prefix of the versioned API surface
API_PREFIX = "/v1"

# -- job states -------------------------------------------------------------
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job never leaves
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class ProtocolError(ValueError):
    """A request that cannot be interpreted (maps to HTTP 400).

    ``kind`` is the :class:`ErrorInfo` kind the server answers with.
    """

    def __init__(self, message: str, kind: str = "bad-request"):
        super().__init__(message)
        self.kind = kind


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


def wire_dict(spec: RunSpec) -> dict:
    """One job as it crosses the wire: :meth:`RunSpec.to_dict` minus
    ``observe`` (observer events would dwarf the stats payload)."""
    out = spec.to_dict()
    del out["observe"]
    return out


def parse_job(data: object) -> RunSpec:
    """One wire job into a :class:`~repro.runtime.RunSpec`.

    Strict like :meth:`RunSpec.from_dict` (an unknown field is an
    error), plus the checks a server makes before admitting anything:
    no observer, a registered policy, a well-formed fault plan, a
    parseable sampling spec or interval token, and no sampling together
    with faults.  The kernel is *not* looked up here: an unknown kernel
    fails its own job (``bad-request``) when the server derives the key,
    never the whole submission.
    """
    if not isinstance(data, dict):
        raise ProtocolError("job spec must be an object")
    try:
        spec = RunSpec.from_dict(data)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    _require(spec.observe is None,
             "observers are not supported over the wire")
    _require(spec.sampling is None or spec.faults is None,
             "sampling does not compose with fault injection")
    try:
        spec.resolved_cfg()   # unknown policy fails here, with hints
        spec.fault_plan()     # malformed fault plan fails here
        if spec.sampling is not None:
            from ..sampling.plan import SamplingSpec, is_interval_token, \
                parse_interval
            if is_interval_token(spec.sampling):
                parse_interval(spec.sampling)   # a pre-planned interval
            else:
                SamplingSpec.parse(spec.sampling)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return spec


@dataclass(frozen=True)
class ErrorInfo:
    """The protocol's one error envelope.

    ``kind`` vocabulary:

    * ``rejected``  — the queue is full; honour ``retry_after``
      (seconds) before resubmitting
    * ``degraded``  — the executor's circuit breaker is open; honour
      ``retry_after`` (the cooldown left) before resubmitting
    * ``draining``  — the daemon is shutting down and admits nothing new
    * ``failed``    — the simulation failed; ``phase``/``attempts`` carry
      the runtime failure classification (worker / timeout / pool)
    * ``cancelled`` — cancelled by a drain before it was dispatched
    * ``bad-request`` / ``not-found`` / ``unsupported-version`` —
      protocol-level problems
    """

    kind: str
    message: str
    phase: str = ""
    attempts: int = 0
    retry_after: float = 0.0

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind,
                                  "message": self.message}
        if self.phase:
            out["phase"] = self.phase
        if self.attempts:
            out["attempts"] = self.attempts
        if self.retry_after:
            out["retry_after"] = self.retry_after
        return out

    @classmethod
    def from_dict(cls, data: object) -> "ErrorInfo":
        if not isinstance(data, dict):
            return cls(kind="unknown", message=repr(data))
        return cls(kind=str(data.get("kind", "unknown")),
                   message=str(data.get("message", "")),
                   phase=str(data.get("phase", "")),
                   attempts=int(data.get("attempts", 0) or 0),
                   retry_after=float(data.get("retry_after", 0.0) or 0.0))

    @classmethod
    def from_failed_result(cls, fr: FailedResult) -> "ErrorInfo":
        return cls(kind="failed", message=fr.describe(), phase=fr.phase,
                   attempts=fr.attempts)

    def to_failed_result(self, kernel: str, scale: float,
                         seed: int) -> FailedResult:
        """The local-runtime twin of this error (for thin clients)."""
        return FailedResult(kernel, scale, seed, error=self.message,
                            phase=self.phase or self.kind,
                            attempts=self.attempts or 1)


@dataclass(frozen=True)
class JobStatus:
    """One submission's externally visible state."""

    id: str
    kernel: str
    state: str
    #: where the result came from once terminal: ``sim`` / ``disk`` /
    #: ``memo`` / ``coalesced`` / ``failed`` ('' while pending)
    source: str = ""
    error: Optional[ErrorInfo] = None

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"id": self.id, "kernel": self.kernel,
                                  "state": self.state}
        if self.source:
            out["source"] = self.source
        if self.error is not None:
            out["error"] = self.error.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: object) -> "JobStatus":
        _require(isinstance(data, dict), "job status must be an object")
        assert isinstance(data, dict)
        err = data.get("error")
        return cls(id=str(data.get("id", "")),
                   kernel=str(data.get("kernel", "")),
                   state=str(data.get("state", "")),
                   source=str(data.get("source", "")),
                   error=None if err is None else ErrorInfo.from_dict(err))

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


# -- envelopes --------------------------------------------------------------

def ok_envelope(**fields_: object) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": True, **fields_}


def error_envelope(err: ErrorInfo) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "error": err.to_dict()}


def check_version(body: dict) -> None:
    """Reject a body that declares a different protocol version."""
    v = body.get("v", PROTOCOL_VERSION)
    if v != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {v!r} "
                            f"(this server speaks v{PROTOCOL_VERSION})",
                            kind="unsupported-version")


def parse_submit_body(body: object) -> List[RunSpec]:
    """Validate a submit request body into its job specs."""
    _require(isinstance(body, dict), "submit body must be an object")
    assert isinstance(body, dict)
    check_version(body)
    jobs = body.get("jobs")
    _require(isinstance(jobs, list) and bool(jobs),
             "submit body needs a non-empty 'jobs' list")
    assert isinstance(jobs, list)
    return [parse_job(item) for item in jobs]
