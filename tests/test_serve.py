"""Tests for the simulation service: protocol, queue, admission, server.

The end-to-end tests start a real :class:`ServeServer` on a loopback
port inside the test's event loop and drive it with the blocking
:class:`ServeClient` from a worker thread — the same topology as
production, minus the subprocess.
"""

import asyncio
import http.client
import json
import multiprocessing
import os
import signal
import socket
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import run_kernel
from repro.runtime import FailedResult, ParallelRunner, ResultCache, RunSpec
from repro.runtime import parallel as parallel_mod
from repro.serve import protocol
from repro.serve.client import (RemoteRunner, ServeClient, ServeError,
                                parse_address)
from repro.serve.protocol import ProtocolError
from repro.serve.queue import Entry, ServeQueue, Ticket
from repro.serve.scheduler import CircuitBreaker, SimExecutor
from repro.serve.server import COUNTER_NAMES, ServeServer
from repro.uarch import SimStats
from repro.uarch.config import ProcessorConfig, ci
from repro.uarch.config import config_from_dict, config_to_dict

SCALE = 0.1
SEED = 1


# -- protocol ---------------------------------------------------------------

class TestProtocol:
    def test_jobspec_roundtrip(self):
        spec = RunSpec(kernel="gzip", scale=0.25, seed=3,
                       cfg=ci(2, 256), policy="vect")
        wire = protocol.wire_dict(spec)
        assert "observe" not in wire
        assert protocol.parse_job(wire) == spec

    def test_config_dict_roundtrip(self):
        cfg = ci(2, 256, replicas=8)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_config_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            config_from_dict({"no_such_knob": 1})

    def test_jobspec_rejects_unknown_policy_at_parse(self):
        with pytest.raises(ProtocolError):
            protocol.parse_job({"kernel": "gzip", "policy": "nope"})

    def test_parse_job_applies_server_checks(self):
        for data, match in (
                ({"kernel": "gzip", "observe": "cpi"}, "observers"),
                ({"kernel": "gzip", "priority": "sweep"}, "unknown"),
                ({"kernel": "gzip", "faults": "nope@x"}, None),
                ({"kernel": "gzip", "sampling": "auto",
                  "faults": "squash@400"}, "sampling"),
                (["gzip"], "object")):
            with pytest.raises(ProtocolError, match=match):
                protocol.parse_job(data)
        # The kernel is looked up per job at key time, not here.
        assert protocol.parse_job({"kernel": "nosuchkernel"}).kernel \
            == "nosuchkernel"

    def test_submit_body_requires_jobs(self):
        with pytest.raises(ProtocolError, match="jobs"):
            protocol.parse_submit_body({"v": protocol.PROTOCOL_VERSION})

    def test_version_check(self):
        with pytest.raises(ProtocolError, match="version") as exc_info:
            protocol.check_version({"v": 999})
        assert exc_info.value.kind == "unsupported-version"
        protocol.check_version({})   # absent version = current

    def test_error_info_failed_result_bridge(self):
        from repro.runtime import FailedResult
        fr = FailedResult("gzip", 0.1, 1, error="boom\nlast line",
                          phase="timeout", attempts=3)
        err = protocol.ErrorInfo.from_failed_result(fr)
        assert err.kind == "failed"
        assert err.phase == "timeout"
        back = err.to_failed_result("gzip", 0.1, 1)
        assert back.failed and back.phase == "timeout"
        assert back.attempts == 3

    def test_parse_address(self):
        assert parse_address("example:99") == ("example", 99)
        assert parse_address("http://h:1/") == ("h", 1)
        assert parse_address("h") == ("h", protocol.DEFAULT_PORT)
        with pytest.raises(ServeError):
            parse_address("h:notaport")


# -- queue ------------------------------------------------------------------

def _ticket(key, kernel="gzip"):
    return Ticket(RunSpec(kernel, SCALE, SEED), key)


class TestServeQueue:
    def test_coalesce_attaches_to_existing_entry(self):
        q = ServeQueue()
        first = _ticket("k1")
        assert q.coalesce(first) is None
        q.push(first)
        twin = _ticket("k1")
        entry = q.coalesce(twin)
        assert entry is not None and len(entry.tickets) == 2
        assert twin.coalesced and q.depth == 1

    def test_coalesce_onto_running_entry(self):
        q = ServeQueue()
        q.push(_ticket("k1"))
        [entry] = q.pop_batch(8)
        assert entry.state == protocol.RUNNING
        twin = _ticket("k1")
        assert q.coalesce(twin) is entry
        assert twin.state == protocol.RUNNING

    def test_coalesced_ticket_keeps_arrival_order(self):
        q = ServeQueue()
        q.push(_ticket("k1"))
        q.push(_ticket("k2"))
        entry = q.coalesce(_ticket("k2"))
        assert entry is not None and len(entry.tickets) == 2
        assert [e.key for e in q.pop_batch(8)] == ["k1", "k2"]

    def test_arrival_order_across_senders(self):
        q = ServeQueue()
        for key in ("a1", "a2", "b1", "a3", "c1"):
            q.push(_ticket(key))
        assert [e.key for e in q.pop_batch(3)] == ["a1", "a2", "b1"]
        assert [e.key for e in q.pop_batch(8)] == ["a3", "c1"]
        assert q.depth == 0 and q.inflight == 5

    def test_drain_empties_every_lane(self):
        q = ServeQueue()
        q.push(_ticket("a"))
        q.push(_ticket("b"))
        drained = q.drain()
        assert {e.key for e in drained} == {"a", "b"}
        assert q.depth == 0 and not q.entries


# -- admission --------------------------------------------------------------

def _held(server, fn):
    """Start ``server`` with its dispatcher stopped (nothing leaves the
    queue), run blocking ``fn(client)`` in a thread, then drain."""
    async def main():
        await server.start()
        await server.dispatcher.stop()
        host, port = server.address
        client = ServeClient(f"{host}:{port}")
        try:
            return await asyncio.to_thread(fn, client)
        finally:
            server.request_shutdown()
            await server.wait_stopped()
    return asyncio.run(main())


def _raw_submit(client, specs):
    """POST a submit and return (HTTP status, Retry-After, envelope)."""
    conn = http.client.HTTPConnection(client.host, client.port,
                                      timeout=30)
    try:
        body = json.dumps({"v": protocol.PROTOCOL_VERSION,
                           "jobs": [protocol.wire_dict(s) for s in specs]})
        conn.request("POST", f"{protocol.API_PREFIX}/submit", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return (resp.status, resp.getheader("Retry-After"),
                json.loads(resp.read()))
    finally:
        conn.close()


class TestAdmission:
    def test_accepts_under_depth(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=2)
        decisions = _held(server, lambda client: client.submit(
            [RunSpec("gzip", SCALE), RunSpec("mcf", SCALE)]))
        assert [d["accepted"] for d in decisions] == [True, True]
        assert server.counters["jobs_submitted"] == 2
        assert server.counters["jobs_rejected"] == 0

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=1)

        def drive(client):
            [first] = client.submit([RunSpec("gzip", SCALE)])
            assert first["accepted"]
            return _raw_submit(client, [RunSpec("mcf", SCALE)])

        status, retry_header, env = _held(server, drive)
        assert status == 429
        assert float(retry_header) > 0
        [decision] = env["jobs"]
        assert not decision["accepted"]
        assert decision["error"]["kind"] == "rejected"
        assert decision["error"]["retry_after"] > 0
        assert server.counters["jobs_rejected"] == 1

    def test_dispatch_follows_arrival_order_across_clients(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            other = ServeClient(client.base_url)
            client.submit([RunSpec("gzip", SCALE), RunSpec("mcf", SCALE)])
            other.submit([RunSpec("vpr", SCALE)])
            client.submit([RunSpec("bzip2", SCALE)])
            other.submit([RunSpec("mcf", SCALE)])      # coalesces
            return [e.spec.kernel for e in server.queue.pop_batch(8)]

        assert _held(server, drive) == ["gzip", "mcf", "vpr", "bzip2"]
        assert server.counters["jobs_coalesced"] == 1


# -- /healthz ----------------------------------------------------------------

class TestMetrics:
    def test_healthz_snapshot(self, tmp_path):
        server = _serve_fixture(tmp_path)
        server.executor.tally = lambda: {"sim": 2, "disk": 1, "memo": 0,
                                         "derived": 0, "failed": 1}
        server.draining = True
        snap = server.health()
        assert snap["status"] == "draining"
        assert (snap["sims_run"], snap["cache_hits"]) == (2, 1)
        assert snap["queue"] == {"depth": 0, "inflight": 0,
                                 "queued_tickets": 0}
        assert snap["counters"] == dict.fromkeys(COUNTER_NAMES, 0)
        assert "journal" not in snap     # journaling disabled


# -- end-to-end -------------------------------------------------------------

def _serve_fixture(tmp_path, **kw):
    cache = ResultCache(root=str(tmp_path / "srvcache"), enabled=True)
    return ServeServer(port=0, cache=cache, jobs=1, **kw)


def _drive(server, fn):
    """Start ``server``, run blocking ``fn(client)`` in a thread, drain."""
    async def main():
        await server.start()
        host, port = server.address
        client = ServeClient(f"{host}:{port}", timeout=30.0)
        try:
            return await asyncio.to_thread(fn, client)
        finally:
            server.request_shutdown()
            await server.wait_stopped()
    return asyncio.run(main())


class TestServerEndToEnd:
    def test_submit_result_matches_local_simulation(self, tmp_path):
        cfg = ProcessorConfig()
        expected = run_kernel("gzip", cfg, scale=SCALE, seed=SEED)

        def drive(client):
            [(status, stats)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED, cfg=cfg)])
            assert status.state == protocol.DONE
            return SimStats.from_dict(stats)

        got = _drive(_serve_fixture(tmp_path), drive)
        assert got == expected

    def test_concurrent_clients_identical_and_run_once(self, tmp_path):
        """Twin submissions coalesce: identical stats, one simulation."""
        server = _serve_fixture(tmp_path)
        specs = [RunSpec(kernel="gzip", scale=SCALE, seed=SEED),
                 RunSpec(kernel="mcf", scale=SCALE, seed=SEED)]

        def drive(client):
            barrier = threading.Barrier(2)
            results = [None, None]

            def one(slot):
                barrier.wait()
                results[slot] = client.run(specs)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return results

        a, b = _drive(server, drive)
        stats_a = [SimStats.from_dict(s) for _, s in a]
        stats_b = [SimStats.from_dict(s) for _, s in b]
        assert stats_a == stats_b
        # each distinct job simulated exactly once across both clients
        assert server.executor.tally()["sim"] == len(specs)
        coalesced = server.counters["jobs_coalesced"]
        cached = (server.executor.tally()["disk"]
                  + server.executor.tally()["memo"])
        assert coalesced + cached >= len(specs)

    def test_warm_resubmit_hits_memo_not_pool(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            spec = RunSpec(kernel="gzip", scale=SCALE, seed=SEED)
            client.run([spec])
            [(status, _)] = client.run([spec])
            return status

        status = _drive(server, drive)
        assert status.source in ("memo", "disk")
        assert server.executor.tally()["sim"] == 1

    def test_bad_kernel_fails_cleanly(self, tmp_path):
        def drive(client):
            [(status, stats)] = client.run(
                [RunSpec(kernel="nosuchkernel", scale=SCALE)])
            assert stats is None
            return status

        status = _drive(_serve_fixture(tmp_path), drive)
        assert status.state == protocol.FAILED
        assert status.error.kind == "bad-request"

    def test_health_and_metrics_endpoints(self, tmp_path):
        """``/healthz`` is the one telemetry face; the retired routes
        answer the ordinary 404 envelope."""
        def drive(client):
            client.run([RunSpec(kernel="gzip", scale=SCALE)])
            retired = [client._request(method, path, body)
                       for method, path, body in (
                           ("GET", "/metrics", None),
                           ("GET", "/v1/health", None),
                           ("POST", "/v1/cancel",
                            {"v": protocol.PROTOCOL_VERSION, "id": "j1"}))]
            return client.health(), retired

        health, retired = _drive(_serve_fixture(tmp_path), drive)
        assert health["status"] == "ok"
        assert health["counters"]["jobs_completed"] == 1
        assert health["sims_run"] == 1
        for status, env in retired:
            assert status == 404 and not env["ok"]
            assert env["error"]["kind"] == "not-found"

    def test_unknown_id_is_not_found(self, tmp_path):
        def drive(client):
            with pytest.raises(ServeError, match="unknown job id"):
                client.status("jnope")
            return True

        assert _drive(_serve_fixture(tmp_path), drive)

    def test_version_mismatch_rejected(self, tmp_path):
        def drive(client):
            status, env = client._request(
                "POST", "/v1/submit",
                {"v": 999, "jobs": [{"kernel": "gzip"}]})
            return status, env

        status, env = _drive(_serve_fixture(tmp_path), drive)
        assert status == 400 and not env["ok"]
        assert "version" in env["error"]["message"]

    def test_v1_body_gets_unsupported_version(self, tmp_path):
        v1_job = {"kernel": "gzip", "scale": SCALE, "seed": SEED,
                  "priority": "interactive", "client": "submit-1"}

        def drive(client):
            return client._request("POST", "/v1/submit",
                                   {"v": 1, "jobs": [v1_job]})

        status, env = _drive(_serve_fixture(tmp_path), drive)
        assert status == 400 and not env["ok"]
        assert env["error"]["kind"] == "unsupported-version"
        assert "v2" in env["error"]["message"]

    def test_bad_kernel_in_batch_fails_only_that_job(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            return client.run([RunSpec("gzip", SCALE, SEED),
                               RunSpec("nosuchkernel", SCALE, SEED),
                               RunSpec("mcf", SCALE, SEED)])

        (good, stats), (bad, none), (also_good, _) = _drive(server, drive)
        assert good.state == also_good.state == protocol.DONE
        assert stats is not None and none is None
        assert bad.state == protocol.FAILED
        assert bad.error.kind == "bad-request"
        assert "nosuchkernel" in bad.error.message
        assert server.executor.tally()["sim"] == 2

    def test_graceful_drain_cancels_queued_jobs(self, tmp_path):
        """Shutdown with queued work: queued tickets go cancelled, the
        daemon drains without orphaned state."""
        server = _serve_fixture(tmp_path)

        def drive(client):
            [decision] = client.submit([RunSpec("gzip", SCALE)])
            assert decision["accepted"]
            return decision["id"]

        ticket = server._tickets[_held(server, drive)]
        assert ticket.state == protocol.CANCELLED
        assert ticket.error.kind == "cancelled"

    def test_backpressure_rejects_when_full(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=1)

        def drive(client):
            first = client.submit([RunSpec("gzip", SCALE)])
            second = client.submit([RunSpec("mcf", SCALE)])
            twin = client.submit([RunSpec("gzip", SCALE)])
            return first, second, twin

        first, second, twin = _held(server, drive)
        assert first[0]["accepted"]
        assert not second[0]["accepted"]
        assert second[0]["error"]["kind"] == "rejected"
        assert second[0]["error"]["retry_after"] > 0
        # A full queue still lets a twin fan in: it adds no work.
        assert twin[0]["accepted"] and twin[0]["coalesced"]
        assert server.counters["jobs_rejected"] == 1
        assert server.counters["jobs_coalesced"] == 1


# -- the one source record ---------------------------------------------------

class TestOneSourceRecord:
    """One failing and two good jobs, run locally (keep-going) and through
    a daemon: every rendering of the runners' source record agrees, and
    the failure counts as ``failed``, never as a simulation."""

    SPECS = [RunSpec("gzip", SCALE, SEED), RunSpec("mcf", SCALE, SEED),
             RunSpec("gzip", SCALE, SEED, faults="crash@100")]
    RECORD = {"memo": 0, "disk": 0, "derived": 0, "sim": 2, "failed": 1}

    def test_local_and_served_renderings_agree(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.cli import main
        local_cache = ResultCache(root=str(tmp_path / "local"), enabled=True)
        local = ParallelRunner(scale=SCALE, seed=SEED, jobs=1,
                               cache=local_cache, keep_going=True)
        out = local.run_many(self.SPECS)
        assert [getattr(st, "failed", False) for st in out] \
            == [False, False, True]
        assert local.tally == self.RECORD
        summary = local.runtime_summary()
        assert summary.startswith("runtime: 2 simulation(s) run")
        assert summary.endswith("0 derived, 1 FAILED")
        assert local_cache.load_counters() == self.RECORD
        monkeypatch.setenv("REPRO_CACHE_DIR", local_cache.root)
        assert main(["cache", "info"]) == 0
        info = capsys.readouterr().out
        assert "sim        : 2" in info and "failed     : 1" in info

        server = _serve_fixture(tmp_path)

        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED,
                                  keep_going=True)
            runner.run_many(self.SPECS)
            return runner, client.health()

        remote, health = _drive(server, drive)
        assert remote.runtime_summary() == (
            f"runtime: 3 job(s) served by {remote.client.base_url}, "
            f"2 sim, 1 FAILED")
        assert server.executor.tally() == self.RECORD
        assert (health["sims_run"], health["cache_hits"]) == (2, 0)
        assert server.executor.cache.load_counters() == self.RECORD

    def test_daemon_runners_keep_no_sources(self, tmp_path):
        """The executor reads each job's source once; its long-lived
        runners keep none of them between batches."""
        executor = SimExecutor(cache=ResultCache(
            root=str(tmp_path / "cache"), enabled=True), jobs=1)
        for kernels in (("gzip", "mcf"), ("vpr", "bzip2")):
            specs = [RunSpec(k, SCALE, SEED) for k in kernels]
            entries = [Entry(Ticket(spec, executor.key_for(spec)))
                       for spec in specs]
            outcome = executor.execute(entries)
            assert [src for _, src in outcome.values()] == ["sim", "sim"]
        assert executor.tally()["sim"] == 4
        assert [r.sources for r in executor._runners.values()] == [{}]


# -- RemoteRunner -----------------------------------------------------------

class TestRemoteRunner:
    def test_remote_runner_matches_local(self, tmp_path):
        cfg = ProcessorConfig()
        expected = run_kernel("mcf", cfg, scale=SCALE, seed=SEED)
        server = _serve_fixture(tmp_path)

        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED)
            first = runner.run("mcf", cfg)
            again = runner.run("mcf", cfg)     # local memo, no round trip
            return first, again, runner

        first, again, runner = _drive(server, drive)
        assert first == expected and again == expected
        assert runner.memo_hits == 1
        assert runner.tally["sim"] == 1
        assert runner.runtime_summary() == (
            f"runtime: 1 job(s) served by {runner.client.base_url}, "
            f"1 sim, 1 local memo hit(s)")

    def test_remote_runner_keep_going_collects_failures(self, tmp_path):
        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED,
                                  keep_going=True)
            out = runner.run_many([RunSpec("nosuchkernel", SCALE, SEED)])
            return out, runner

        out, runner = _drive(_serve_fixture(tmp_path), drive)
        assert getattr(out[0], "failed", False)
        assert len(runner.failures) == 1

    def test_remote_runner_raises_without_keep_going(self, tmp_path):
        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED)
            with pytest.raises(ServeError, match="nosuchkernel"):
                runner.run("nosuchkernel", ProcessorConfig())
            return True

        assert _drive(_serve_fixture(tmp_path), drive)

    def test_unreachable_server_is_a_serve_error(self, monkeypatch):
        # Millisecond delays; every reconnect attempt still runs.
        from repro.serve import client
        monkeypatch.setattr(client, "BACKOFF_BASE", 0.001)
        monkeypatch.setattr(client, "BACKOFF_CAP", 0.004)
        runner = RemoteRunner("127.0.0.1:1", scale=SCALE, seed=SEED)
        with pytest.raises(ServeError, match="cannot reach") as exc_info:
            runner.run("gzip", ProcessorConfig())
        assert f"after {client.RECONNECT_TRIES + 1} attempt(s)" \
            in str(exc_info.value)


# -- crash safety -----------------------------------------------------------

class TestCrashRecovery:
    """The journal contract, end to end: a crashed incarnation's work
    survives into its successor with nothing lost and nothing re-run."""

    def test_restart_replays_incomplete_and_serves_completed(self, tmp_path):
        from repro.serve.journal import replay_journal

        jpath = str(tmp_path / "journal.jsonl")
        cfg = ProcessorConfig()
        done_spec = RunSpec(kernel="gzip", scale=SCALE, seed=SEED)
        lost_spec = RunSpec(kernel="mcf", scale=SCALE, seed=SEED)
        expected = {
            "gzip": run_kernel("gzip", cfg, scale=SCALE, seed=SEED),
            "mcf": run_kernel("mcf", cfg, scale=SCALE, seed=SEED),
        }

        # Incarnation 1: complete one job, then crash with a second
        # job journaled as accepted but never dispatched.
        server1 = _serve_fixture(tmp_path, journal=jpath)

        async def crash_run():
            await server1.start()
            host, port = server1.address
            client = ServeClient(f"{host}:{port}", timeout=30.0)
            [(status, _)] = await asyncio.to_thread(
                client.run, [done_spec])
            assert status.state == protocol.DONE
            server1.journal.note_accepted(
                lost_spec.cache_key(), lost_spec.to_dict())
            server1.abort()   # kill -9, in spirit

        asyncio.run(crash_run())

        # Incarnation 2: same journal, same cache root.
        server2 = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            return client.run([done_spec, lost_spec])

        outcomes = _drive(server2, drive)

        # The incomplete job was re-enqueued from the journal...
        assert server2.counters["jobs_replayed"] == 1
        assert server2.journal_replay.epochs == 1   # predecessor's mark
        assert list(server2.journal_replay.incomplete) \
            == [lost_spec.cache_key()]
        # ...the completed one came back from the result cache, and
        # nothing was simulated twice.
        for (status, stats), kernel in zip(outcomes, ("gzip", "mcf")):
            assert status.state == protocol.DONE
            assert SimStats.from_dict(stats) == expected[kernel]
        done_status = outcomes[0][0]
        assert done_status.source in ("disk", "memo")
        assert server2.executor.tally()["sim"] == 1   # mcf only

        # The journal's whole history audits clean.
        replay = replay_journal(jpath, quarantine=False)
        assert replay.consistent
        assert replay.duplicate_sims() == []
        assert replay.epochs == 2

    def test_corrupt_tail_quarantined_on_startup(self, tmp_path):
        jpath = str(tmp_path / "journal.jsonl")
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.write('{"v": 1, "sha256": "torn-mid-wri\n')

        server = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            [(status, _)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED)])
            return status

        status = _drive(server, drive)
        assert status.state == protocol.DONE
        assert server.journal_replay.corrupt == 1
        with open(jpath + ".quarantine", encoding="utf-8") as fh:
            assert "# line 1" in fh.read()

    def test_healthz_codes_follow_server_state(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            status, env = client._request("GET", "/healthz")
            assert status == 200 and env["status"] == "ok"
            server.breaker.note_batch(*_dead_batch())
            status, env = client._request("GET", "/healthz")
            assert status == 503
            assert env["status"] == "degraded:circuit-open"
            server.breaker.state = CircuitBreaker.OK
            return True

        assert _drive(server, drive)

    def test_submit_prints_a_non_ok_health_state(self, tmp_path, capsys):
        from repro.cli import main
        server = _serve_fixture(tmp_path)

        def drive(client):
            server.draining = True     # /healthz answers 503 "draining"
            return main(["submit", "gzip", "--scale", str(SCALE), "-q",
                         "--server", client.base_url])

        _held(server, drive)
        assert "repro submit: server reports draining" \
            in capsys.readouterr().err

    def test_open_breaker_refuses_new_work_until_cooldown(self, tmp_path):
        from repro.serve.protocol import ErrorInfo

        clock = {"now": 0.0}
        breaker = CircuitBreaker(cooldown=10.0, clock=lambda: clock["now"])
        server = _serve_fixture(tmp_path, breaker=breaker)
        gzip = RunSpec("gzip", SCALE, SEED)
        mcf = RunSpec("mcf", SCALE, SEED)

        async def main():
            await server.start()
            await server.dispatcher.stop()       # hold the queue
            host, port = server.address
            client = ServeClient(f"{host}:{port}")

            def submit(spec):
                return asyncio.to_thread(client.submit, [spec])

            [queued] = await submit(gzip)
            assert queued["accepted"]
            assert breaker.note_batch(*_dead_batch())   # trip it
            assert breaker.state == CircuitBreaker.OPEN

            [refused] = await submit(mcf)
            assert not refused["accepted"]
            err = ErrorInfo.from_dict(refused["error"])
            assert err.kind == "degraded"
            assert 0 < err.retry_after <= 10.0
            # No new work: a twin of the queued job still fans in.
            [twin] = await submit(gzip)
            assert twin["accepted"] and twin["coalesced"]

            clock["now"] = 10.5                  # cooldown elapsed
            [probe] = await submit(mcf)
            assert probe["accepted"] and not probe["coalesced"]

            # Release the queue: the half-open probe batch runs and its
            # healthy outcome closes the breaker.
            server.dispatcher._stopping = False
            server.dispatcher.start()
            outcomes = await asyncio.to_thread(client.run, [gzip, mcf])
            server.request_shutdown()
            await server.wait_stopped()
            return outcomes

        outcomes = asyncio.run(main())
        assert [st.state for st, _ in outcomes] == [protocol.DONE] * 2
        assert breaker.state == CircuitBreaker.OK
        assert server.counters["jobs_rejected_degraded"] == 1
        assert server.executor.tally()["sim"] == 2

    def test_replays_journal_written_by_v1_server(self, tmp_path):
        """A v1 ``accepted`` record carries ``priority``/``client`` in
        its spec: startup closes it as unreplayable, the server comes
        up healthy, and a resubmission runs the job exactly once."""
        from repro.serve.journal import JobJournal, replay_journal

        jpath = str(tmp_path / "journal.jsonl")
        spec = RunSpec("gzip", SCALE, SEED)
        key = spec.cache_key()
        v1_spec = dict(protocol.wire_dict(spec), priority="sweep",
                       client="cli-123")
        old = JobJournal(jpath)
        old.note_server_start()
        old.note_accepted(key, v1_spec)
        old.note_started([key])
        old.close()

        server = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            health = client.health()
            [(status, stats)] = client.run([spec])
            return health, status, stats

        health, status, stats = _drive(server, drive)
        assert list(server.journal_replay.incomplete) == [key]
        assert server.counters["jobs_replayed"] == 0
        with open(jpath, encoding="utf-8") as fh:
            records = [json.loads(line)["record"] for line in fh]
        [closed] = [r for r in records if r["event"] == "cancelled"]
        assert closed["key"] == key
        assert closed["reason"].startswith("unreplayable spec")
        assert health["status"] == "ok"
        assert status.state == protocol.DONE
        assert SimStats.from_dict(stats) == run_kernel(
            "gzip", ProcessorConfig(), scale=SCALE, seed=SEED)
        assert server.executor.tally()["sim"] == 1
        assert replay_journal(jpath, quarantine=False).consistent

    def test_dropped_connection_reconnects_and_coalesces(self, tmp_path):
        """A connection cut after the submit is sent must not lose or
        duplicate the job: the retry coalesces onto the accepted one."""
        server = _serve_fixture(tmp_path)
        cfg = ProcessorConfig()
        expected = run_kernel("gzip", cfg, scale=SCALE, seed=SEED)

        def drive(client):
            drops = {"submit": 1, "poll": 1}

            def drop(method, path):
                if method == "POST" and path.endswith("/submit") \
                        and drops["submit"]:
                    drops["submit"] -= 1
                    return True
                if method == "GET" and "/status" in path \
                        and drops["poll"]:
                    drops["poll"] -= 1
                    return True
                return False

            client.drop_after_send = drop
            [(status, stats)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED)])
            assert drops == {"submit": 0, "poll": 0}   # both fired
            assert status.state == protocol.DONE
            return stats

        stats = _drive(server, drive)
        assert SimStats.from_dict(stats) == expected
        assert server.executor.tally()["sim"] == 1


class _Entry:
    def __init__(self, key):
        self.key = key


def _failed(phase):
    return FailedResult("gzip", SCALE, SEED, "x", phase=phase)


def _dead_batch():
    """A batch whose every job ended in a transient phase."""
    return ([_Entry("a"), _Entry("b")],
            {"a": (_failed("timeout"), "failed"),
             "b": (_failed("pool"), "failed")})


class TestCircuitBreaker:
    def test_breaker_lifecycle(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(cooldown=10.0, clock=lambda: clock["now"])
        entries, dead = _dead_batch()
        assert breaker.allows()
        assert breaker.note_batch(entries, dead)   # one dead batch trips
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allows()
        assert 0.5 <= breaker.retry_after() <= 10.0
        clock["now"] = 10.5                        # cooldown elapsed
        assert breaker.allows()                    # half-open
        assert breaker.state == CircuitBreaker.OPEN
        healthy = {"a": (_failed("timeout"), "failed"),
                   "b": (_failed("worker"), "failed")}
        assert not breaker.note_batch(entries, healthy)
        assert breaker.state == CircuitBreaker.OK

    def test_batch_dead_classification(self):
        entries, dead = _dead_batch()
        assert CircuitBreaker.batch_dead(entries, dead)
        mixed = {"a": (_failed("timeout"), "failed"),
                 "b": (_failed("worker"), "failed")}
        assert not CircuitBreaker.batch_dead(entries, mixed)
        assert not CircuitBreaker.batch_dead([], {})


# -- the runtime's retry loop is the daemon's only one ----------------------

_real_run_job = parallel_mod._run_job


def _die_in_pool(job):
    """Kills its pool worker until the pool-rebuild count reaches
    ``_REPRO_TEST_LIVE_FROM``.  A forked worker inherits the count of
    its pass, so this kills every worker of the first passes; jobs run
    in-process (the parent) are never killed."""
    if (os.getpid() != int(os.environ["_REPRO_TEST_PARENT"])
            and parallel_mod.pool_restart_count()
            < int(os.environ["_REPRO_TEST_LIVE_FROM"])):
        os._exit(1)
    return _real_run_job(job)


def _signal_state():
    """A pool worker's inherited signal state: (wakeup fd, SIGTERM is
    the default action).  Clearing the wakeup fd returns the old one."""
    return (signal.set_wakeup_fd(-1),
            signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)


class TestRuntimeRetries:
    KERNELS = ("gzip", "mcf", "vpr")

    def test_pool_workers_drop_the_daemons_signal_state(self):
        """A forked worker must not inherit the daemon's event-loop
        wakeup fd or SIGTERM handler: the SIGTERM ``concurrent.futures``
        sends survivors when a worker dies would otherwise land in the
        daemon's self-pipe and drain it (DESIGN §12.2)."""
        loop_end, other_end = socket.socketpair()
        loop_end.setblocking(False)
        old_fd = signal.set_wakeup_fd(loop_end.fileno())
        old_handler = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=parallel_mod._worker_init) as pool:
                assert pool.submit(_signal_state).result(timeout=60) \
                    == (-1, True)
        finally:
            signal.set_wakeup_fd(old_fd)
            signal.signal(signal.SIGTERM, old_handler)
            loop_end.close()
            other_end.close()

    def _kill_pools(self, monkeypatch, passes):
        monkeypatch.setenv("_REPRO_TEST_PARENT", str(os.getpid()))
        monkeypatch.setenv("_REPRO_TEST_LIVE_FROM",
                           str(parallel_mod.pool_restart_count() + passes))
        monkeypatch.setattr(parallel_mod, "_run_job", _die_in_pool)

    def _server(self, tmp_path, **kw):
        # Two jobs: a one-job runner takes the serial path, no pool.
        cache = ResultCache(root=str(tmp_path / "srvcache"), enabled=True)
        return ServeServer(port=0, cache=cache, jobs=2, **kw)

    def test_worker_deaths_absorbed_by_runtime_counted_once(
            self, tmp_path, monkeypatch):
        # The deterministic worker kill, audited like a daemon crash:
        # the journal replays clean with no job simulated twice.
        from repro.serve.journal import replay_journal
        jpath = str(tmp_path / "journal.jsonl")
        self._kill_pools(monkeypatch, passes=2)
        server = self._server(tmp_path, journal=jpath)
        specs = [RunSpec(k, SCALE, SEED) for k in self.KERNELS]

        def drive(client):
            before = client.health()["worker_restarts"]
            outcomes = client.run(specs)
            return outcomes, client.health()["worker_restarts"] - before

        outcomes, restarts = _drive(server, drive)
        assert [st.state for st, _ in outcomes] \
            == [protocol.DONE] * len(specs)
        assert server.breaker.state == CircuitBreaker.OK
        assert server.counters["circuit_trips"] == 0
        assert restarts == 2
        assert server.executor.tally()["sim"] == len(specs)
        replay = replay_journal(jpath, quarantine=False)
        assert replay.consistent, replay.violations
        assert replay.duplicate_sims() == []

    def test_exhausted_budget_fails_jobs_and_opens_breaker(
            self, tmp_path, monkeypatch):
        self._kill_pools(monkeypatch, passes=1000)
        server = self._server(tmp_path, retries=1)
        specs = [RunSpec(k, SCALE, SEED) for k in self.KERNELS]

        def drive(client):
            outcomes = client.run(specs)
            return outcomes, client._request("GET", "/healthz")

        outcomes, (code, health) = _drive(server, drive)
        for status, stats in outcomes:
            assert status.state == protocol.FAILED and stats is None
            assert status.error.kind == "failed"
            assert status.error.phase == "pool"
            assert status.error.attempts == 2
        assert code == 503
        assert health["status"] == "degraded:circuit-open"
        assert server.counters["circuit_trips"] == 1

    def test_default_retry_budget(self, tmp_path, monkeypatch):
        cache = ResultCache(root=str(tmp_path / "c"), enabled=True)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert SimExecutor(cache=cache).retries == 7
        monkeypatch.setenv("REPRO_RETRIES", "2")
        assert SimExecutor(cache=cache).retries == 2
        assert SimExecutor(cache=cache, retries=0).retries == 0
