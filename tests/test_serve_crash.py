"""Crash safety of ``repro serve`` at the process and wire boundary.

``tests/test_serve.py`` crashes an in-process server with ``abort()``.
These tests cover what only a real process or a raw socket can show:

* a ``SIGKILL`` of a real daemon's process group while its journal
  holds a started job, a torn journal tail, and a successor on the same
  port that replays the job: nothing lost, nothing simulated twice, and
  stats equal to a serial run;
* non-HTTP bytes, broken JSON and bad ``Content-Length`` headers at the
  listener, each answered 4xx without hurting the daemon;
* a client that stalls mid-request while another is served.
"""

import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

from repro import run_kernel
from repro.runtime import RunSpec
from repro.serve import client as client_mod
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.journal import replay_journal
from repro.uarch import SimStats, ci

from .test_serve import _drive, _serve_fixture

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src")

#: the lines a crash mid-append, a forged record and disk garbage leave
BAD_TAIL = (
    '{"v": 1, "sha256": "torn-mid-wri',
    '{"v": 1, "sha256": "0" , "record": {"event": "completed", '
    '"key": "forged", "seq": 1}}',
    "\x00\x01 not json at all",
)


class Daemon:
    """``python -m repro serve`` as a real subprocess leading its own
    session, so one ``killpg`` takes its forked pool workers too."""

    def __init__(self, workdir):
        self.journal = str(workdir / "journal.jsonl")
        self.log = str(workdir / "serve.log")
        self.port = 0
        self.proc = None
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["REPRO_CACHE_DIR"] = str(workdir / "cache")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))

    @property
    def address(self):
        return f"127.0.0.1:{self.port}"

    def start(self, attempts=8):
        """Launch and wait for the ``listening on`` banner.  A killed
        group releases its listening socket asynchronously, so a
        restart retries ``address already in use``."""
        for attempt in range(attempts):
            with open(self.log, "w") as err:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--host", "127.0.0.1", "--port", str(self.port),
                     "--jobs", "2", "--batch-max", "2",
                     "--journal", self.journal],
                    env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                    start_new_session=True)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                with open(self.log) as fh:
                    text = fh.read()
                banner = re.search(r"listening on http://[^:]+:(\d+)", text)
                if banner:
                    self.port = int(banner.group(1))
                    return
                if self.proc.poll() is not None:
                    break
                time.sleep(0.01)
            self.kill()
            assert "address already in use" in text, text
            time.sleep(0.1 * (attempt + 1))
        raise AssertionError(f"port {self.port} stayed bound")

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()

    def stop(self):
        """Graceful drain; SIGKILL the group if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            assert self.proc.wait(timeout=30) == 0
        finally:
            self.kill()


def _in_flight(journal):
    """Keys the journal shows ``started`` with no terminal record."""
    started, ended = set(), set()
    try:
        with open(journal, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return set()
    for line in lines:
        try:
            record = json.loads(line)["record"]
        except (ValueError, KeyError, TypeError):
            continue   # a line the daemon is still writing
        if record.get("event") == "started":
            started.add(record["key"])
        elif record.get("event") in ("completed", "failed", "cancelled"):
            ended.add(record["key"])
    return started - ended


def test_sigkill_mid_job_replays_without_duplicates(tmp_path, monkeypatch):
    monkeypatch.setattr(client_mod, "BACKOFF_BASE", 0.05)
    cfg = ci(1, 512)
    kernels = ("gzip", "mcf", "vpr", "bzip2")
    specs = [RunSpec(k, 0.5, 1, cfg) for k in kernels]
    daemon = Daemon(tmp_path)
    outcome = {}
    try:
        daemon.start()
        first_port = daemon.port
        client = ServeClient(daemon.address)
        sweep = threading.Thread(
            target=lambda: outcome.update(runs=client.run(specs)),
            daemon=True)
        sweep.start()
        deadline = time.monotonic() + 30
        while not _in_flight(daemon.journal):
            assert time.monotonic() < deadline, "no job ever started"
            time.sleep(0.005)
        daemon.kill()
        assert _in_flight(daemon.journal), "the job finished first"
        with open(daemon.journal, "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in BAD_TAIL))
        daemon.start()
        assert daemon.port == first_port
        sweep.join(timeout=60)
        assert not sweep.is_alive()
        health = client.health()
    finally:
        daemon.stop()

    for kernel, (status, stats) in zip(kernels, outcome["runs"]):
        assert status.state == protocol.DONE, status
        assert SimStats.from_dict(stats) == run_kernel(
            kernel, cfg, scale=0.5, seed=1), kernel
    replay = replay_journal(daemon.journal, quarantine=False)
    assert replay.consistent, replay.violations
    assert replay.duplicate_sims() == []
    assert replay.epochs == 2
    with open(daemon.journal + ".quarantine", encoding="utf-8") as fh:
        assert sum(line.startswith("# line ") for line in fh) == 3
    assert health["counters"]["jobs_replayed"] >= 1


# -- the listener, in process ------------------------------------------------

def _exchange(client, payload):
    """Send raw bytes; return everything the server sends back."""
    with socket.create_connection((client.host, client.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _post(length, body=b""):
    return (f"POST {protocol.API_PREFIX}/submit HTTP/1.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


def test_garbage_at_the_listener_gets_4xx(tmp_path, caplog):
    torn = b'{"v": 1, "jobs": [tor'
    payloads = {
        "non-http": b"\x00\x7fGARBAGE NOT HTTP\r\n\r\n",
        "broken json": _post(len(torn), torn),
        "length abc": _post("abc"),
        "length -5": _post(-5),
    }

    def drive(client):
        answers = {name: _exchange(client, raw)
                   for name, raw in payloads.items()}
        [(status, _)] = client.run([RunSpec("gzip", 0.1, 1)])
        return answers, status

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        answers, status = _drive(_serve_fixture(tmp_path), drive)
    for name, answer in answers.items():
        assert answer.startswith(b"HTTP/1.1 4"), (name, answer)
    for name in ("broken json", "length abc", "length -5"):
        assert answers[name].startswith(b"HTTP/1.1 400"), name
        assert b'"bad-request"' in answers[name], name
    assert status.state == protocol.DONE
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_stalled_client_does_not_block_others(tmp_path):
    def drive(client):
        with socket.create_connection((client.host, client.port),
                                      timeout=10) as stalled:
            stalled.sendall(_post(100, b'{"v": 1'))   # then nothing
            start = time.monotonic()
            [(status, _)] = client.run([RunSpec("gzip", 0.1, 1)])
            return status, time.monotonic() - start

    status, elapsed = _drive(_serve_fixture(tmp_path), drive)
    assert status.state == protocol.DONE
    assert elapsed < 10   # well inside the server's 30 s read timeout
