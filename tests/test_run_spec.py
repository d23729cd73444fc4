"""The canonical run vocabulary: RunSpec, the workload registry and the
one content-addressed key (DESIGN.md §11).

Covers the round-trip guarantees (dict/JSON, faults and observers), the
deprecated ``(kernel, cfg)`` tuple shim, registry enumeration, and the
key-stability golden: the same request must produce byte-identical keys
through the local pool, the serve coalescing index and a JSON wire
round-trip — across releases (tests/golden/run_keys.json pins them).
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.runtime import RunSpec, run_key
from repro.runtime.spec import SPEC_FIELDS
from repro.uarch import ci, scal, wb
from repro.uarch.config import ProcessorConfig
from repro.workloads import (
    UnknownWorkloadError,
    all_workloads,
    get_workload,
    kernel_names,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "run_keys.json")


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = RunSpec("gzip", 0.3, 7, ci(1, 512), policy="vect")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_with_faults_and_observe(self):
        spec = RunSpec("mcf", 0.1, 2, wb(2, 256),
                       faults="valfail*3,seed=7", observe="cpi,audit")
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.faults == "valfail*3,seed=7"
        assert back.observe == "cpi,audit"

    def test_json_round_trip(self):
        spec = RunSpec("eon", 0.25, 3, scal(1, 128))
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_covers_every_field(self):
        spec = RunSpec("gzip")
        assert set(spec.to_dict()) == set(SPEC_FIELDS)

    def test_from_dict_rejects_unknown_fields(self):
        data = RunSpec("gzip").to_dict()
        data["priority"] = "interactive"
        with pytest.raises(ValueError, match="unknown fields"):
            RunSpec.from_dict(data)

    def test_from_dict_rejects_bad_types(self):
        with pytest.raises(ValueError):
            RunSpec.from_dict({"kernel": 3})
        with pytest.raises(ValueError):
            RunSpec.from_dict({"kernel": "gzip", "scale": "lots"})

    def test_defaults(self):
        spec = RunSpec("gzip")
        assert spec.scale == 0.5 and spec.seed == 1
        assert spec.cfg == ProcessorConfig()
        assert spec.policy is None and spec.faults is None
        assert spec.observe is None


class TestValidation:
    def test_validate_returns_self(self):
        spec = RunSpec("gzip", 0.1, 1, ci(1, 512))
        assert spec.validate() is spec

    def test_validate_unknown_kernel_suggests(self):
        with pytest.raises(UnknownWorkloadError) as exc:
            RunSpec("bzip", 0.1, 1, ci(1, 512)).validate()
        assert "did you mean" in str(exc.value)
        assert "bzip2" in str(exc.value)

    def test_validate_unknown_policy(self):
        with pytest.raises(ValueError):
            RunSpec("gzip", 0.1, 1, ci(1, 512), policy="nosuch").validate()

    def test_validate_bad_fault_plan(self):
        with pytest.raises(ValueError):
            RunSpec("gzip", 0.1, 1, ci(1, 512),
                    faults="frobnicate@9").validate()

    def test_resolved_cfg_applies_policy(self):
        spec = RunSpec("gzip", 0.1, 1, ci(1, 512), policy="vect")
        assert spec.resolved_cfg().ci_policy == "vect"


class TestRegistry:
    def test_enumeration_matches_suite(self):
        assert kernel_names() == [
            "bzip2", "crafty", "eon", "gap", "gcc", "gzip",
            "mcf", "parser", "perlbmk", "twolf", "vortex", "vpr"]

    def test_specs_carry_metadata(self):
        for spec in all_workloads():
            assert spec.category and spec.description and spec.traits
            assert spec.default_scales

    def test_get_workload_suggests(self):
        with pytest.raises(UnknownWorkloadError) as exc:
            get_workload("vortx")
        assert "did you mean" in str(exc.value)

    def test_registry_builds_programs(self):
        prog = get_workload("gzip").program(0.05, 1)
        assert len(prog) > 0


class TestKeyStability:
    """One identity everywhere: pool, serve coalescing, JSON wire."""

    def entries(self):
        with open(GOLDEN) as fh:
            return json.load(fh)["entries"]

    def test_golden_keys_byte_identical(self):
        for entry in self.entries():
            spec = RunSpec.from_dict(entry["spec"])
            assert spec.cache_key() == entry["key"]

    def test_local_runner_key_matches(self):
        # run_key() is the exact function the pool memo and the disk
        # cache address results by.
        for entry in self.entries():
            spec = RunSpec.from_dict(entry["spec"])
            assert run_key(spec) == entry["key"]

    def test_serve_coalescing_key_matches(self):
        from repro.serve import protocol
        from repro.serve.scheduler import SimExecutor
        executor = SimExecutor()
        for entry in self.entries():
            spec = RunSpec.from_dict(entry["spec"])
            job = protocol.parse_job(protocol.wire_dict(spec))
            assert executor.key_for(job) == entry["key"]

    def test_json_round_trip_key_matches(self):
        for entry in self.entries():
            spec = RunSpec.from_json(RunSpec.from_dict(entry["spec"])
                                     .to_json())
            assert spec.cache_key() == entry["key"]

    def test_observe_does_not_change_key(self):
        base = RunSpec("gzip", 0.1, 1, ci(1, 512))
        observed = RunSpec("gzip", 0.1, 1, ci(1, 512), observe="cpi")
        assert observed.cache_key() == base.cache_key()

    def test_faults_change_key(self):
        base = RunSpec("gzip", 0.1, 1, ci(1, 512))
        faulted = RunSpec("gzip", 0.1, 1, ci(1, 512), faults="squash@400")
        assert faulted.cache_key() != base.cache_key()


class TestSingleHashAuthority:
    def test_hashlib_only_in_keys_module(self):
        # The key schema lives in exactly one file; a second hashlib
        # import means a second key vocabulary is growing somewhere.
        # Even there it is imported by the first hash, never at module
        # level, so a process that only simulates maps no OpenSSL.
        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            "src", "repro")
        offenders = []
        for dirpath, _, files in os.walk(root):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    text = fh.read()
                rel = os.path.relpath(path, root)
                if re.search(r"^(import|from) hashlib", text, re.MULTILINE) \
                        or ("hashlib" in text
                            and rel != os.path.join("runtime", "keys.py")):
                    offenders.append(rel)
        assert not offenders, f"hashlib outside runtime/keys.py " \
            f"or imported at module level: {offenders}"

    def test_simulating_loads_no_openssl(self):
        # Only the first hash imports hashlib: a run that computes no
        # key never maps OpenSSL, and the first run_key still matches
        # the golden.
        with open(GOLDEN) as fh:
            entry = json.load(fh)["entries"][-1]
        script = (
            "import json, sys\n"
            "from repro import configs, run_kernel\n"
            "from repro.runtime import RunSpec, run_key\n"
            "run_kernel('bzip2', configs.ci(1, 512), scale=0.05)\n"
            "loaded = {'hashlib', '_hashlib'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "print(run_key(RunSpec.from_dict(json.loads(sys.argv[1]))))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(entry["spec"])],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == entry["key"]

    def test_checked_faulted_run_loads_no_networking(self):
        # A checked or faulted run stays in process: the networking
        # modules belong to the serving layer alone.
        script = (
            "import sys\n"
            "from repro import build_program, configs, run_program\n"
            "run_program(build_program('bzip2', 0.05, 1),\n"
            "            configs.ci(1, 512), check=True,\n"
            "            faults='squash@300')\n"
            "loaded = {'ssl', 'http.client'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
