"""Service-layer chaos harness for ``repro serve``.

Where :mod:`repro.faults.plan` injects *microarchitectural* faults into
one simulation, this module injects *operational* faults into the whole
serving stack — daemon, journal, pool, wire — and holds the survivors
to the crash-safety contract:

1. **journal consistency** — after the drill, replaying the journal
   must describe a legal job history (no lifecycle-order violations)
   and :meth:`~repro.serve.journal.JournalReplay.duplicate_sims` must
   be empty: no job was ever *simulated* twice, however many times the
   daemon died;
2. **equivalence** — every kernel's stats must be byte-identical to an
   uninterrupted serial reference run.  Crash safety that changes the
   numbers is not safety.

A :class:`ChaosPlan` is seeded and deterministic, mirroring
:class:`~repro.faults.plan.FaultPlan`: the same spec string and the
same sweep size fire the same events at the same progress points.

Spec grammar (the ``repro chaos --plan`` syntax)::

    plan := item ("," item)*
    item := "seed=" INT | KIND ["@" POS]
    KIND := kill-server | drop-conn | corrupt-journal | slow-client
          | malformed-envelope
    POS  := INT | start | mid | end

Positions are *progress points*: an event armed ``@N`` fires once the
client has collected N results (``mid`` = half the sweep, ``end`` = the
last job, unpinned = drawn from ``random.Random(seed)``).  Every trigger
is below the sweep size, so every event fires by the client's final
poll.  The daemon under test runs as a real subprocess (``python -m
repro serve``) in its own session, with tiny batches (``--batch-max
2``) so a kill genuinely lands mid-sweep, an isolated
``REPRO_CACHE_DIR`` and its own journal; ``kill-server`` SIGKILLs the
daemon's process group — no drain, no flush — and restarts it on the
same port, which is exactly the crash the journal exists for.

Pool-worker deaths are not a chaos kind: tier-1 kills pool workers
deterministically (``tests/test_serve.py::TestRuntimeRetries``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: every injectable service-layer fault kind, in default-plan order
CHAOS_KINDS: Tuple[str, ...] = (
    "kill-server",          # SIGKILL the daemon mid-sweep, restart it
    "drop-conn",            # cut the client connection after a request
    "corrupt-journal",      # scribble a torn/garbage tail on the journal
    "slow-client",          # stall the client past its poll cadence
    "malformed-envelope",   # raw garbage + invalid JSON at the listener
)

#: symbolic progress positions
POSITIONS = ("start", "mid", "end")

#: the default drill: every kind once, at seeded positions
DEFAULT_PLAN = ",".join(CHAOS_KINDS)


@dataclass(frozen=True)
class ChaosSpec:
    """One planned event: ``kind`` fires at progress position ``pos``.

    ``pos`` is ``""`` (unpinned — resolved from the plan seed), one of
    :data:`POSITIONS`, or a decimal progress index."""

    kind: str
    pos: str = ""

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; known: "
                f"{', '.join(CHAOS_KINDS)}")
        if self.pos and self.pos not in POSITIONS \
                and not self.pos.isdigit():
            raise ValueError(
                f"bad chaos position {self.pos!r} "
                f"(expected an integer or one of {', '.join(POSITIONS)})")

    def to_spec(self) -> str:
        return f"{self.kind}@{self.pos}" if self.pos else self.kind

    def trigger(self, total: int, rng: random.Random) -> int:
        """The progress count (results collected) at which this fires."""
        last = max(0, total - 1)
        if self.pos == "start":
            return 0
        if self.pos == "mid":
            return total // 2
        if self.pos == "end":
            return last
        if self.pos:
            return min(int(self.pos), last)
        return rng.randrange(0, max(1, total))


class ChaosPlan:
    """An ordered, deterministic set of chaos events."""

    def __init__(self, specs: Sequence[ChaosSpec], seed: int = 0):
        self.seed = seed
        self.specs: Tuple[ChaosSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        """Parse the ``--plan`` spec grammar (see the module docstring)."""
        specs: List[ChaosSpec] = []
        seed = 0
        for raw in text.split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[5:])
                except ValueError:
                    raise ValueError(
                        f"bad chaos-plan seed {part!r}") from None
                continue
            pos = ""
            if "@" in part:
                part, pos = part.split("@", 1)
                pos = pos.strip()
            specs.append(ChaosSpec(kind=part.strip(), pos=pos))
        return cls(specs, seed=seed)

    def resolve(self, total: int) -> List[Tuple[int, ChaosSpec]]:
        """``(trigger, spec)`` pairs for a sweep of ``total`` jobs,
        sorted by trigger.  Deterministic: unpinned positions are drawn
        from ``random.Random(seed)`` in spec order."""
        rng = random.Random(self.seed)
        resolved = [(spec.trigger(total, rng), spec)
                    for spec in self.specs]
        resolved.sort(key=lambda pair: (pair[0], pair[1].kind))
        return resolved

    def to_spec(self) -> str:
        out = ",".join(s.to_spec() for s in self.specs)
        return f"{out},seed={self.seed}" if self.seed else out


class ChaosDriver:
    """The daemon under test, managed as a real subprocess.

    Owns an isolated working directory (cache + journal), learns the
    daemon's port from its startup banner, and restarts crashed
    incarnations on the *same* port so a mid-sweep client reconnects to
    the successor transparently."""

    def __init__(self, workdir: str, jobs: int = 2, queue_depth: int = 64,
                 batch_max: int = 2, startup_timeout: float = 60.0):
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.journal_path = os.path.join(workdir, "serve-journal.jsonl")
        self.jobs = jobs
        #: small batches so a daemon kill genuinely lands mid-sweep
        self.batch_max = batch_max
        self.queue_depth = queue_depth
        self.startup_timeout = startup_timeout
        #: learned from the first incarnation's banner, then pinned
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        #: every stderr line from every incarnation (diagnostics)
        self.log: List[str] = []
        #: SIGKILLs delivered to the daemon (crash count)
        self.kills = 0
        self._ready = threading.Event()

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def _env(self) -> Dict[str, str]:
        import repro
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_CACHE_DIR"] = self.cache_dir
        # The drill controls its own failures; ambient knobs must not.
        for knob in ("REPRO_FAULTS", "REPRO_CACHE", "REPRO_KEEP_GOING",
                     "REPRO_JOBS", "REPRO_TIMEOUT", "REPRO_RETRIES"):
            env.pop(knob, None)
        return env

    # -- lifecycle -------------------------------------------------------
    def start(self, attempts: int = 8) -> None:
        """Launch one incarnation and wait for its listening banner.

        The daemon leads its own session, so its forked pool workers
        share its process group and :meth:`kill` takes them all.  A
        restart can still transiently lose the bind race — a killed
        process releases its listening fd asynchronously — so
        ``EADDRINUSE`` is retried a few times."""
        last_tail = ""
        for attempt in range(attempts):
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", str(self.port),
                   "--jobs", str(self.jobs), "--batch-max",
                   str(self.batch_max),
                   "--queue-depth", str(self.queue_depth),
                   "--journal", self.journal_path]
            self._ready = threading.Event()
            mark = len(self.log)
            self.proc = subprocess.Popen(
                cmd, env=self._env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, start_new_session=True)
            threading.Thread(target=self._pump,
                             args=(self.proc, self._ready),
                             daemon=True).start()
            if self._ready.wait(self.startup_timeout):
                return
            last_tail = "\n".join(self.log[-10:])
            self.stop()
            bound = any("address already in use" in line
                        for line in self.log[mark:])
            if not bound or attempt == attempts - 1:
                break
            time.sleep(0.25 * (attempt + 1))
        raise RuntimeError(
            f"repro serve did not come up within "
            f"{self.startup_timeout:.0f}s; last stderr:\n{last_tail}")

    def _pump(self, proc: subprocess.Popen,
              ready: threading.Event) -> None:
        assert proc.stderr is not None
        for raw in proc.stderr:
            line = raw.rstrip("\n")
            self.log.append(line)
            m = re.search(r"listening on http://[^:]+:(\d+)", line)
            if m:
                self.port = int(m.group(1))
                ready.set()

    def kill(self) -> None:
        """SIGKILL the daemon's process group — no drain, no flush, no
        goodbye.  The group holds the pool workers too: they inherited
        the listening socket at fork, and an orphan still holding that
        fd would keep the port bound against the successor."""
        self._killpg()
        self.kills += 1

    def _killpg(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain (SIGTERM); escalates to SIGKILL on a hang."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung drain
            self._killpg()

    def corrupt_journal_tail(self) -> int:
        """Append torn and corrupt lines to the (closed) journal.

        Call only while the daemon is down — a live incarnation holds
        the append handle.  Returns the number of bad lines written."""
        bad = [
            '{"v": 1, "sha256": "torn-mid-wri',             # torn write
            '{"v": 1, "sha256": "0" , "record": {"event": '
            '"completed", "key": "forged", "seq": 1}}',     # bad checksum
            "\x00\x01 not json at all",                     # garbage
        ]
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            for line in bad:
                fh.write(line + "\n")
        return len(bad)


@dataclass
class ChaosReport:
    """Outcome of one chaos drill (see :meth:`render` for the verdict)."""

    plan_spec: str
    seed: int
    kernels: List[str]
    #: events that fired, as ``kind@trigger`` strings, in firing order
    fired: List[str] = field(default_factory=list)
    #: jobs that ended without stats (kernel: state)
    failures: List[str] = field(default_factory=list)
    #: kernels whose stats differ from the serial reference
    mismatches: List[str] = field(default_factory=list)
    #: journal lifecycle-order violations
    violations: List[str] = field(default_factory=list)
    #: keys simulated more than once (the cardinal sin)
    duplicate_sims: List[str] = field(default_factory=list)
    records: int = 0
    epochs: int = 0
    #: corrupt lines parked in ``<journal>.quarantine``
    quarantined: int = 0
    #: SIGKILLs the driver delivered to the daemon
    server_kills: int = 0
    #: client resilience events (reconnects, reattaches, degraded)
    client_events: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``FAIL`` when a contract broke (inconsistent journal, a
        duplicated simulation, an unfinished job, stats that differ from
        serial); else ``OK``."""
        if self.violations or self.duplicate_sims or self.failures \
                or self.mismatches:
            return "FAIL"
        return "OK"

    @property
    def ok(self) -> bool:
        return self.verdict == "OK"

    def render(self) -> str:
        lines = [
            f"chaos drill     : {self.plan_spec} (seed {self.seed})",
            f"jobs            : {len(self.kernels)} kernel(s), "
            f"{len(self.kernels) - len(self.failures)} completed, "
            f"{len(self.failures)} failed",
            f"events          : fired {', '.join(self.fired) or 'none'}",
            f"server restarts : {self.server_kills} kill(s), "
            f"{self.epochs} epoch(s) in journal",
        ]
        if self.violations:
            lines.append(f"journal replay  : INCONSISTENT — "
                         f"{len(self.violations)} violation(s)")
            lines.extend(f"    {v}" for v in self.violations)
        else:
            lines.append(f"journal replay  : consistent — "
                         f"{self.records} record(s), 0 violation(s)")
        lines.append(f"duplicated sims : {len(self.duplicate_sims)}"
                     + (f" ({', '.join(k[:12] for k in self.duplicate_sims)})"
                        if self.duplicate_sims else ""))
        lines.append(f"quarantined     : {self.quarantined} line(s)")
        if self.mismatches:
            lines.append(f"equivalence     : {len(self.mismatches)} "
                         f"MISMATCH(ES) ({', '.join(self.mismatches)})")
        else:
            lines.append("equivalence     : identical to the serial "
                         "reference")
        for failure in self.failures:
            lines.append(f"    failed: {failure}")
        lines.append(f"verdict         : {self.verdict}")
        return "\n".join(lines)


def _jsonable(payload: object) -> object:
    """Normalise through JSON so tuple-vs-list never fails equivalence."""
    return json.loads(json.dumps(payload))


def _send_malformed(host: str, port: int) -> None:
    """Hit the listener with a non-HTTP blob and an invalid JSON body."""
    try:
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"\x00\x7fGARBAGE NOT HTTP\r\n\r\n")
            sock.settimeout(2.0)
            try:
                sock.recv(256)
            except OSError:
                pass
    except OSError:
        pass
    from ..serve import protocol
    try:
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        conn.request("POST", f"{protocol.API_PREFIX}/submit",
                     body='{"v": 1, "jobs": [tor',
                     headers={"Content-Type": "application/json"})
        conn.getresponse().read()
        conn.close()
    except OSError:
        pass


def run_chaos(plan: ChaosPlan, kernels: Optional[Sequence[str]] = None, *,
              scale: float = 0.05, data_seed: int = 1, jobs: int = 2,
              workdir: Optional[str] = None,
              on_event: Optional[Callable[[str], None]] = None,
              client_timeout: float = 20.0) -> ChaosReport:
    """Run one chaos drill and audit the crash-safety contract.

    1. Simulate every kernel serially in-process (no cache, no pool):
       the golden reference.
    2. Start a journaled ``repro serve`` subprocess (isolated cache
       dir, ``--batch-max 2``) and drive the same sweep through
       :meth:`ServeClient.run`, firing the plan's events at their
       resolved progress points.
    3. Drain the daemon, replay the journal read-only, and compare:
       journal consistency, zero duplicated simulations, and stats
       equal to the reference for every kernel.
    """
    from .. import run_program
    from ..serve.client import ServeClient
    from ..serve.journal import replay_journal
    from ..runtime import RunSpec
    from ..serve.protocol import DONE
    from ..uarch import ci
    from ..workloads import build_program, kernel_names

    names = list(kernels) if kernels else kernel_names()
    cfg = ci(1, 512)
    notify = on_event or (lambda message: None)

    # 1. Golden serial reference (pure in-process, no caching involved).
    notify(f"reference: simulating {len(names)} kernel(s) serially")
    golden: Dict[str, object] = {}
    for name in names:
        st = run_program(build_program(name, scale, data_seed), cfg)
        golden[name] = _jsonable(st.to_dict())

    owns_workdir = workdir is None
    if owns_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    driver = ChaosDriver(workdir, jobs=jobs)
    report = ChaosReport(plan_spec=plan.to_spec() or "(empty)",
                         seed=plan.seed, kernels=names)

    specs = [RunSpec(name, scale, data_seed, cfg) for name in names]
    pending = plan.resolve(len(specs))   # sorted by trigger
    drop_armed = {"n": 0}

    def chaos_drop(method: str, path: str) -> bool:
        if drop_armed["n"] > 0:
            drop_armed["n"] -= 1
            return True
        return False

    def on_poll(done: int, total: int) -> None:
        """Fire every event whose trigger ``done`` has reached."""
        while pending and pending[0][0] <= done:
            trigger, spec = pending.pop(0)
            label = f"{spec.kind}@{trigger}"
            notify(f"chaos: firing {label}")
            if spec.kind == "kill-server":
                driver.kill()
                driver.start()
            elif spec.kind == "corrupt-journal":
                driver.kill()
                driver.corrupt_journal_tail()
                driver.start()
            elif spec.kind == "drop-conn":
                drop_armed["n"] += 1
            elif spec.kind == "slow-client":
                time.sleep(1.0)
            elif spec.kind == "malformed-envelope":
                _send_malformed("127.0.0.1", driver.port)
            report.fired.append(label)

    # 2. The drill.
    driver.start()
    client = ServeClient(driver.address, timeout=client_timeout,
                         on_event=report.client_events.append)
    client.chaos_drop = chaos_drop
    try:
        outcomes = client.run(specs, poll=0.05, on_poll=on_poll)
    finally:
        driver.stop()
    report.server_kills = driver.kills

    # 3. The audit.
    replay = replay_journal(driver.journal_path, quarantine=False)
    report.records = replay.records
    report.epochs = replay.epochs
    report.violations = list(replay.violations)
    report.duplicate_sims = replay.duplicate_sims()
    qpath = driver.journal_path + ".quarantine"
    if os.path.exists(qpath):
        with open(qpath, encoding="utf-8") as fh:
            report.quarantined = sum(
                1 for line in fh if line.startswith("# line "))
    for name, (status, stats) in zip(names, outcomes):
        if status.state != DONE or stats is None:
            report.failures.append(f"{name}: ended {status.state}")
        elif _jsonable(stats) != golden[name]:
            report.mismatches.append(name)
    if owns_workdir and report.ok:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)
    elif owns_workdir:
        notify(f"chaos: evidence kept in {workdir}")
    return report
