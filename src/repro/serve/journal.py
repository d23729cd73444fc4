"""Durable job journal — the serving layer's write-ahead log.

``repro serve`` speculatively *accepts* work long before it executes;
this module is the recovery point that makes the speculation safe.
Every lifecycle transition of an accepted job — ``accepted`` (with its
full spec), ``started``, ``completed`` (with its result source),
``failed``, ``cancelled`` — is appended to one JSONL file *before* the
client sees the acknowledgement, each line a checksummed envelope
fsync'd to disk.  After a crash (including kill -9 mid-batch) the
server replays the journal: jobs without a terminal record are
re-enqueued, completed ones are served from the result cache on
resubmission, and torn or corrupt tail records are quarantined aside —
the same envelope-verify-quarantine idiom ``runtime/cache.py`` applies
to result entries.

Identity is the canonical :func:`repro.runtime.keys.run_key` (via
``spec.cache_key()``): content-addressed, so a client resubmitting
after a restart re-attaches to the replayed entry instead of
duplicating the simulation.  The journal is therefore also an audit
log — :meth:`JournalReplay.duplicate_sims` proves that no key was ever
*simulated* twice, which the chaos harness asserts after every drill.

File format, one record per line::

    {"v": 1, "sha256": "<digest of record>", "record": {...}}

The checksum is :func:`repro.runtime.keys.stats_digest` over the
canonical JSON form of the record (keys.py is the repo's only hashing
authority).  A line that fails to parse or verify is *corrupt*; replay
moves it to ``<journal>.quarantine`` (with its line number and reason)
and heals the journal in place via the atomic write-then-rename idiom.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from ..runtime.keys import stats_digest

#: bump on any incompatible record-shape change; records from other
#: schemas are skipped as *stale* (not corrupt) during replay
JOURNAL_SCHEMA = 1

# -- record events ----------------------------------------------------------
SERVER_START = "server-start"   #: one per daemon incarnation (epoch marker)
ACCEPTED = "accepted"           #: job admitted; record carries the spec
STARTED = "started"             #: job handed to the executor
COMPLETED = "completed"         #: job finished with stats (carries source)
FAILED = "failed"               #: job finished with an error envelope
CANCELLED = "cancelled"         #: client cancel / drain (v1: also shed)

#: events that end a job's lifecycle
TERMINAL_EVENTS = (COMPLETED, FAILED, CANCELLED)

EVENTS = (SERVER_START, ACCEPTED, STARTED) + TERMINAL_EVENTS


def _encode(record: dict) -> str:
    return json.dumps({"v": JOURNAL_SCHEMA,
                       "sha256": stats_digest(record),
                       "record": record},
                      sort_keys=True, separators=(",", ":"))


@dataclass
class JournalReplay:
    """The outcome of replaying one journal file.

    ``incomplete`` maps each key with no terminal record to its last
    ``accepted`` record (which carries the job spec) — exactly the jobs
    a restarted server must re-enqueue.  ``completions`` keeps *every*
    terminal completion source per key so the duplicate-simulation
    audit survives resubmission cycles (accepted → completed → accepted
    → completed is legal; two ``source == "sim"`` completions for one
    key is the violation the chaos harness hunts)."""

    path: str
    #: verified records applied to the state machine
    records: int = 0
    #: ``server-start`` markers seen (daemon incarnations so far)
    epochs: int = 0
    #: lines quarantined as torn/corrupt
    corrupt: int = 0
    #: lines skipped for a different (older/newer) journal schema
    stale: int = 0
    #: where quarantined lines went (None when the journal was clean)
    quarantine_path: Optional[str] = None
    #: key -> last ACCEPTED record, for jobs with no terminal event
    incomplete: "OrderedDict[str, dict]" = field(
        default_factory=OrderedDict)
    #: key -> last terminal event name
    terminal: Dict[str, str] = field(default_factory=dict)
    #: key -> every completion source, in order (duplicate-sim audit)
    completions: Dict[str, List[str]] = field(default_factory=dict)
    #: lifecycle-order violations (terminal/started without accept, ...)
    violations: List[str] = field(default_factory=list)
    #: highest record seq seen (appends resume above it)
    last_seq: int = 0

    def duplicate_sims(self) -> List[str]:
        """Keys whose result was *simulated* more than once.

        Replaying a job killed mid-flight legitimately re-runs it (the
        first attempt never completed); completing one key twice from
        the pool means the crash-safety layer duplicated work."""
        return [key for key, sources in self.completions.items()
                if sources.count("sim") > 1]

    @property
    def consistent(self) -> bool:
        """True when the journal describes a legal job history."""
        return not self.violations and not self.duplicate_sims()

    def describe(self) -> str:
        bits = [f"{self.records} record(s)", f"{self.epochs} epoch(s)",
                f"{len(self.incomplete)} incomplete",
                f"{len(self.terminal)} terminal"]
        if self.corrupt:
            bits.append(f"{self.corrupt} quarantined")
        if self.stale:
            bits.append(f"{self.stale} stale")
        if self.violations:
            bits.append(f"{len(self.violations)} VIOLATION(S)")
        dups = self.duplicate_sims()
        if dups:
            bits.append(f"{len(dups)} DUPLICATE SIM(S)")
        return ", ".join(bits)

    # -- state machine ---------------------------------------------------
    def apply(self, record: dict) -> None:
        """Fold one verified record into the replay state."""
        event = record.get("event")
        key = str(record.get("key", ""))
        self.records += 1
        self.last_seq = max(self.last_seq, int(record.get("seq", 0) or 0))
        if event == SERVER_START:
            self.epochs += 1
            return
        if event == ACCEPTED:
            # Re-acceptance after a terminal event is a legal
            # resubmission; acceptance while incomplete is the server
            # double-journaling one admission.
            if key in self.incomplete:
                self.violations.append(
                    f"{key[:12]}: accepted twice without a terminal "
                    f"event in between")
            self.incomplete[key] = record
            return
        if event == STARTED:
            if key not in self.incomplete:
                self.violations.append(
                    f"{key[:12]}: started without an accepted record")
            return
        if event in TERMINAL_EVENTS:
            if self.incomplete.pop(key, None) is None:
                self.violations.append(
                    f"{key[:12]}: {event} without an accepted record")
            self.terminal[key] = event
            if event == COMPLETED:
                source = str(record.get("source", "")) or "sim"
                self.completions.setdefault(key, []).append(source)
            return
        self.violations.append(f"{key[:12]}: unknown event {event!r}")


def replay_journal(path: str, quarantine: bool = True) -> JournalReplay:
    """Replay ``path`` into a :class:`JournalReplay`.

    With ``quarantine=True`` (the startup path) corrupt lines are moved
    to ``<path>.quarantine`` and the journal is *healed*: rewritten
    atomically with only the verified lines, so a second replay is
    idempotent and reports zero corruption.  With ``quarantine=False``
    (audit path, e.g. the chaos harness inspecting a live file) nothing
    on disk is modified."""
    replay = JournalReplay(path=path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError:
        return replay   # no journal yet: empty replay
    good: List[str] = []
    bad: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            envelope = json.loads(line)
            if not isinstance(envelope, dict):
                raise ValueError("not a journal envelope")
            if not {"v", "sha256", "record"} <= set(envelope):
                raise ValueError("envelope missing v/sha256/record")
            record = envelope["record"]
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if envelope["v"] != JOURNAL_SCHEMA:
                replay.stale += 1
                continue
            if stats_digest(record) != envelope["sha256"]:
                raise ValueError("checksum mismatch")
        except ValueError as exc:
            replay.corrupt += 1
            bad.append((lineno, line, str(exc)))
            continue
        good.append(line)
        replay.apply(record)
    if bad and quarantine:
        replay.quarantine_path = _quarantine_lines(path, bad)
        _heal(path, good)
    return replay


def _quarantine_lines(path: str,
                      bad: Sequence[Tuple[int, str, str]]) -> str:
    """Append corrupt lines (with provenance) to ``<path>.quarantine``."""
    qpath = path + ".quarantine"
    try:
        with open(qpath, "a", encoding="utf-8") as fh:
            for lineno, line, reason in bad:
                fh.write(f"# line {lineno}: {reason}\n{line}\n")
    except OSError:   # pragma: no cover - quarantine is best-effort
        pass
    return qpath


def _heal(path: str, good_lines: Sequence[str]) -> None:
    """Atomically rewrite the journal with only its verified lines."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in good_lines))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:   # pragma: no cover - healing is best-effort
        try:
            os.unlink(tmp)
        except OSError:
            pass


class JobJournal:
    """Append-only fsync'd journal of job lifecycle transitions.

    One instance per server; appends are serialised by a lock (the
    event loop is the only writer in practice, but the chaos harness
    and tests append from other threads).  ``append_many`` amortises
    one flush+fsync over a batch — the dispatcher journals a whole
    batch's ``started`` records with a single durability point."""

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self._fh: Optional[IO[str]] = None
        self._lock = threading.Lock()
        self._seq = 0
        #: records appended by this instance (not lifetime file total)
        self.appended = 0

    # -- plumbing --------------------------------------------------------
    def _open(self) -> IO[str]:
        if self._fh is None or self._fh.closed:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def resume_from(self, replay: JournalReplay) -> None:
        """Continue the seq numbering of a replayed journal."""
        with self._lock:
            self._seq = max(self._seq, replay.last_seq)

    def append(self, event: str, key: str = "", **fields: object) -> None:
        self.append_many([(event, key, fields)])

    def append_many(
            self,
            items: Sequence[Tuple[str, str, Dict[str, object]]]) -> None:
        """Append records (``(event, key, fields)`` each) with one
        flush + fsync for the whole batch."""
        if not items:
            return
        with self._lock:
            fh = self._open()
            for event, key, fields in items:
                self._seq += 1
                record: Dict[str, object] = {"event": event,
                                             "seq": self._seq}
                if key:
                    record["key"] = key
                record.update(fields)
                fh.write(_encode(record) + "\n")
                self.appended += 1
            fh.flush()
            if self.fsync:
                try:
                    os.fsync(fh.fileno())
                except OSError:   # pragma: no cover - exotic filesystems
                    pass

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()

    # -- lifecycle vocabulary -------------------------------------------
    def note_server_start(self, **info: object) -> None:
        self.append(SERVER_START, **info)

    def note_accepted(self, key: str, spec_dict: dict) -> None:
        self.append(ACCEPTED, key, spec=spec_dict)

    def note_started(self, keys: Sequence[str]) -> None:
        self.append_many([(STARTED, key, {}) for key in keys])

    def note_completed(self, key: str, source: str) -> None:
        self.append(COMPLETED, key, source=source)

    def note_failed(self, key: str, message: str = "") -> None:
        self.append(FAILED, key, message=message)

    def note_cancelled(self, key: str, reason: str = "") -> None:
        self.append(CANCELLED, key, reason=reason)

    # -- replay ----------------------------------------------------------
    def replay(self, quarantine: bool = True) -> JournalReplay:
        """Replay this journal's file (see :func:`replay_journal`);
        call before the first append on startup."""
        replay = replay_journal(self.path, quarantine=quarantine)
        self.resume_from(replay)
        return replay
