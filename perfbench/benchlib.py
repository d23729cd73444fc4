"""Helpers shared by the benchmark's parent, child and tracing processes.

Stdlib only, and free of ``repro`` imports: the parent process that
orchestrates a run never loads the simulator, so its own memory and
start-up stay out of every measurement.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from typing import Dict, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: the checkout the benchmark measures (this directory's parent)
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: scratch space for caches, checkpoint stores and per-child trace files
WORK = os.path.join(ROOT, ".perfbench_work")
#: where a traced run leaves its spans
TRACE_PATH = os.path.join(ROOT, "bench-trace.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def sources_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def clean_env(**extra: str) -> Dict[str, str]:
    """The environment every measured process runs under.

    ``REPRO_*`` variables are dropped so a caller's shell (faults,
    invariant checks, observers, a disabled skip-ahead, a shared cache
    directory) cannot change what is measured; the hash seed is pinned
    so dict and set layouts, and with them timings, repeat.  Bytecode
    is cached next to the sources, as in an ordinary install, so that
    start-up does not recompile every module: a caller's
    ``PYTHONDONTWRITEBYTECODE`` doubled ``setup_s`` and made it swing
    by 30%, and ``PYTHONPYCACHEPREFIX`` could point outside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")
           and k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def run_proc(cmd: Sequence[str], env: Dict[str, str], timeout: float,
             capture_stderr: bool = True) -> Tuple[int, str, str]:
    """Run ``cmd`` in its own process group; returns (rc, stdout, stderr).

    On timeout the whole group is killed (pool workers included) and
    reaped before this returns, so no process outlives the call; the
    return code is then -9.
    """
    proc = subprocess.Popen(
        list(cmd), cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"perfbench: {' '.join(cmd)} timed out after {timeout:g}s",
              file=sys.stderr)
        return -9, out, err or ""
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err or ""


def last_json_line(text: str) -> Optional[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        value = json.loads(lines[-1])
    except ValueError:
        return None
    return value if isinstance(value, dict) else None
