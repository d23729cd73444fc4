"""Canonical key derivation — the *only* module that hashes identities.

Everything that turns "one logical simulation run" into a
content-addressed name lives here, so the local pool's memo/disk keys,
the serve layer's coalescing index and a JSON-round-tripped
:class:`~repro.runtime.spec.RunSpec` can never drift apart:

* :func:`program_fingerprint` — SHA-256 over the instruction stream and
  the initial data image;
* :func:`image_digest` — SHA-256 over the decode-once
  :class:`~repro.isa.predecode.ProgramImage` encoding (the simulator
  executes the *predecoded* program, so predecode-layer changes
  invalidate cached results even when the instruction stream does not);
* :func:`config_token` — the canonical string form of a
  :class:`~repro.uarch.ProcessorConfig` (and, without its capacities,
  the sweep group of :func:`capacity_group`);
* :func:`job_key` — the schema-versioned cache key of one
  (program, config, scale, seed) simulation;
* :func:`run_key` — :func:`job_key` for a :class:`RunSpec`, folding in
  its fault plan when one is attached;
* :func:`stats_digest` — the integrity checksum of a cache envelope's
  stats payload;
* :func:`checkpoint_key` — the name of one functional checkpoint in the
  sampling subsystem's store (program fingerprint + boundary only, so
  every config/policy point of a sweep shares it).

A CI lint asserts ``hashlib`` appears nowhere else under ``src/repro``
(and ``tests/test_run_spec.py`` enforces the same), which is what makes
"same request ⇒ same key" a structural guarantee instead of three
copies kept in sync by hand.

The module also owns the process-wide *program* memo
(:func:`cached_program`): key derivation, in-process simulation and the
pool workers all build + predecode a given (kernel, scale, seed) point
exactly once.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import TYPE_CHECKING, Dict, Tuple

from ..isa.predecode import PREDECODE_VERSION, ProgramImage, predecode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isa import Program
    from ..uarch import ProcessorConfig
    from .spec import RunSpec

#: bump when the timing model's behaviour changes (invalidates all
#: cached entries); schema 2 introduced the checksummed envelope
CACHE_SCHEMA = 2

#: bump when the functional-checkpoint payload layout changes
#: (invalidates the checkpoint store — see repro.sampling.checkpoint)
CHECKPOINT_SCHEMA = 1


#: the ``CacheConfig`` levels nested in a ``ProcessorConfig``
_CACHE_LEVELS = frozenset(("l1d", "l2", "l3"))


def config_token(cfg: "ProcessorConfig", omit: Tuple[str, ...] = ()) -> str:
    """Canonical string form of a configuration (every field, sorted).

    Built shallowly from the instance dicts, which hold exactly the
    fields of these frozen dataclasses: ``dataclasses.asdict`` deep-copies
    every value, and the only nested values are the ``CacheConfig``
    levels.  ``omit`` leaves fields out (:func:`capacity_group`)."""
    values = {name: vars(value) if name in _CACHE_LEVELS else value
              for name, value in vars(cfg).items() if name not in omit}
    return json.dumps(values, sort_keys=True, default=str)


#: the configuration fields that size a capacity pool (DESIGN §9.7)
CAPACITIES = ("phys_regs", "spec_mem_size")


def capacity_group(spec: "RunSpec") -> Tuple[tuple, Tuple[int, int]]:
    """``(group, (phys_regs, spec_mem_size))`` for capacity derivation.

    Runs in one group differ only in their capacities: same program
    point, same resolved config otherwise, and either all or none have a
    speculative data memory (DESIGN §9.7).  Without one the spec-memory
    capacity is 0 and never differs within the group.
    """
    spec_mem = spec.cfg.spec_mem_size
    with _key_lock:
        group = _spec_token(spec, CAPACITIES)
    return ((spec.kernel, spec.scale, spec.seed, group, spec_mem is not None),
            (spec.cfg.phys_regs, spec_mem or 0))


def program_fingerprint(program: "Program") -> str:
    """SHA-256 over the instruction stream and the initial data image.

    Cached on the program object: figures re-run the same kernels under
    dozens of configurations.
    """
    cached = getattr(program, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for instr in program.code:
        h.update(repr((int(instr.op), instr.rd, instr.rs1, instr.rs2,
                       instr.imm, instr.target, instr.pc)).encode())
    for addr in sorted(program.data_init):
        h.update(repr((addr, program.data_init[addr])).encode())
    digest = h.hexdigest()
    program._fingerprint = digest
    return digest


def digest_image(image: ProgramImage) -> str:
    """SHA-256 over one image's encoding (plus ``PREDECODE_VERSION``).

    The evaluation callables are excluded (they are derived from the
    opcode, which the kind/flag/fu arrays pin down together with the
    operand encoding).  :attr:`ProgramImage.digest` delegates here and
    caches the result on the image.
    """
    h = hashlib.sha256()
    h.update(f"predecode={PREDECODE_VERSION}\n".encode())
    for pc in range(image.n):
        h.update(repr((image.kind[pc], image.flags[pc], image.ctrl[pc],
                       image.rd[pc], image.rs1[pc], image.rs2[pc],
                       image.imm[pc], image.target[pc], image.srcs[pc],
                       int(image.fu_class[pc]))).encode())
    return h.hexdigest()


def image_digest(program: "Program") -> str:
    """The (cached) predecode digest for a program."""
    return predecode(program).digest


def job_key(program: "Program", cfg: "ProcessorConfig",
            scale: float, seed: int) -> str:
    """Content-addressed cache key for one (program, config) simulation.

    Includes the decode-once image digest: the simulator executes the
    *predecoded* program, so a predecoding change (a new structural
    flag, a different operand encoding) invalidates cached results even
    when the instruction stream itself is unchanged.
    """
    return _job_key(program, config_token(cfg), scale, seed)


def _job_key(program: "Program", token: str, scale: float,
             seed: int) -> str:
    """:func:`job_key` from an already serialised configuration."""
    h = hashlib.sha256()
    h.update(f"schema={CACHE_SCHEMA}\n".encode())
    h.update(program_fingerprint(program).encode())
    h.update(f"image={image_digest(program)}\n".encode())
    h.update(token.encode())
    h.update(f"\nscale={scale!r} seed={seed!r}".encode())
    return h.hexdigest()


def stats_digest(stats_dict: dict) -> str:
    """Checksum over the canonical JSON form of a stats payload."""
    canonical = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- the process-wide program memo ------------------------------------------

#: (kernel, scale, seed) -> built + predecoded Program.  Shared by key
#: derivation, runners and pool workers so every consumer of the same
#: program point shares one build and one decode-once image; bounded so
#: a long-lived process sweeping many points cannot grow without limit.
_PROGRAM_MEMO_CAP = 16
_program_memo: Dict[Tuple[str, float, int], object] = {}
_program_lock = threading.Lock()


def cached_program(kernel: str, scale: float, seed: int):
    """Build (or reuse) the program for one (kernel, scale, seed) point.

    Raises :class:`~repro.workloads.UnknownWorkloadError` for a kernel
    missing from the registry (message carries suggestions).
    """
    point = (kernel, scale, seed)
    with _program_lock:
        prog = _program_memo.get(point)
        if prog is None:
            from ..workloads import build_program
            prog = build_program(kernel, scale, seed)
            predecode(prog)  # decode once; every config run shares it
            while len(_program_memo) >= _PROGRAM_MEMO_CAP:
                _program_memo.pop(next(iter(_program_memo)))
            _program_memo[point] = prog
    return prog


# -- the one spec-level key --------------------------------------------------

#: bound on each memo (the serve daemon decodes a new config per job)
_MEMO_CAP = 4096
#: (id(cfg), policy, omit) -> (cfg, token).  By identity, never by
#: equality: equal configs can serialise differently (``512`` vs
#: ``512.0``); holding ``cfg`` keeps its id from being reused.
_token_memo: Dict[tuple, Tuple["ProcessorConfig", str]] = {}
#: (kernel, repr(scale), repr(seed), token, faults, sampling) -> run key
_key_memo: Dict[tuple, str] = {}
#: guards both memos; also serialises :func:`run_key`'s program build,
#: so concurrent serve submits don't duplicate it
_key_lock = threading.Lock()


def _remember(memo: dict, ident: tuple, value) -> None:
    while len(memo) >= _MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[ident] = value


def _spec_token(spec: "RunSpec", omit: Tuple[str, ...] = ()) -> str:
    """:func:`config_token` of ``spec.resolved_cfg()``, serialised once
    per configuration object and policy (caller holds ``_key_lock``)."""
    ident = (id(spec.cfg), spec.policy, omit)
    hit = _token_memo.get(ident)
    if hit is None:
        hit = (spec.cfg, config_token(spec.resolved_cfg(), omit))
        _remember(_token_memo, ident, hit)
    return hit[1]


def run_key(spec: "RunSpec") -> str:
    """THE content-addressed identity of one logical run.

    For a plain spec this is byte-for-byte :func:`job_key` of the built
    program under the resolved config — the same key the disk cache has
    always used, so adopting ``RunSpec`` invalidates nothing.  A spec
    carrying a fault plan gets a derived key folding the plan spec in,
    keeping perturbed runs disjoint from the clean-result namespace; a
    sampling spec folds in the same way, so sampled *estimates* never
    collide with exact results (and each interval job has its own key).

    The observer spec is deliberately excluded: it changes how a run is
    watched, never its stats.
    """
    with _key_lock:
        token = _spec_token(spec)
        ident = (spec.kernel, repr(spec.scale), repr(spec.seed), token,
                 spec.faults, spec.sampling)
        key = _key_memo.get(ident)
        if key is None:
            program = cached_program(spec.kernel, spec.scale, spec.seed)
            key = _job_key(program, token, spec.scale, spec.seed)
            if spec.faults:
                h = hashlib.sha256(key.encode())
                h.update(f"\nfaults={spec.faults}".encode())
                key = h.hexdigest()
            if spec.sampling:
                h = hashlib.sha256(key.encode())
                h.update(f"\nsampling={spec.sampling}".encode())
                key = h.hexdigest()
            _remember(_key_memo, ident, key)
    return key


# -- functional checkpoints ---------------------------------------------------

def checkpoint_key(fingerprint: str, boundary) -> str:
    """Content-addressed name of one functional checkpoint (or meta entry).

    Keyed by the *program fingerprint* and the instruction ``boundary``
    alone — deliberately no config, policy, scale or seed beyond what
    the fingerprint already pins: architectural state at an instruction
    boundary depends only on the program, so every policy/config point
    of a sweep shares the same checkpoint.  ``boundary`` is an
    instruction index, or the string ``"meta"`` for the per-program
    metadata entry (total dynamic length).
    """
    h = hashlib.sha256()
    h.update(f"ckpt-schema={CHECKPOINT_SCHEMA}\n".encode())
    h.update(f"program={fingerprint}\n".encode())
    h.update(f"boundary={boundary}".encode())
    return h.hexdigest()
