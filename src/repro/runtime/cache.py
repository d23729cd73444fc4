"""Persistent, content-addressed simulation-result cache.

One simulation = one JSON file under the cache root, named by the
canonical run key (:func:`repro.runtime.keys.job_key` — schema version,
program fingerprint, predecode image digest, full config, scale and
seed).  Key *derivation* lives entirely in :mod:`repro.runtime.keys`;
this module only stores and audits envelopes under those names.

Layout: ``<root>/<first-2-hex>/<key>.json`` — two-level sharding keeps
directory listings small on big sweeps.  Writes go to a temporary file
in the same directory followed by an atomic rename, so concurrent
worker processes (or concurrent sessions) never observe a torn entry.

Integrity (DESIGN.md §8): each entry is an envelope
``{"schema": N, "sha256": <digest>, "stats": {...}}`` where the digest
covers the canonical JSON of the stats payload.  Reads re-verify the
checksum; an unparsable or checksum-failing file is *quarantined*
(moved under ``<root>/quarantine/``) so a bad disk or torn write can
never silently feed a wrong number into a figure, and the original
bytes survive for inspection.  An entry with a different ``schema`` is
a plain miss — valid data from another version, not corruption.
``repro cache verify`` (:meth:`ResultCache.verify`) audits the whole
store on demand.

Provenance: when the writer knows the :class:`~repro.runtime.spec.RunSpec`
that produced a result, :meth:`ResultCache.put` records ``spec.to_dict()``
in the envelope.  The spec is *descriptive* — it is excluded from the
integrity checksum (older entries without it stay valid) and never
consulted on reads; ``cache verify`` reports how many entries carry it.

Accounting: the cache keeps no tally of its own.  Each
:class:`~repro.runtime.parallel.ParallelRunner` records where its
results came from (memo, disk, derived, sim, failed) and merges what
that record gained into ``<root>/counters.json``
(:meth:`ResultCache.merge_counters`), so ``repro cache info`` reports
the runners' record summed over every process that used this root.
The counters are best-effort operational numbers — results never
depend on them.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache root (default ``$XDG_CACHE_HOME/repro-sim``
  or ``~/.cache/repro-sim``).
* ``REPRO_CACHE=0`` — disable reads and writes entirely.
* ``REPRO_FAULTS`` — when a fault plan is active the cache disables
  itself: perturbed runs must never poison (or be served from) the
  clean-result store.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..uarch import SimStats
from .keys import (  # noqa: F401  (re-exported: historical home of the keys)
    CACHE_SCHEMA,
    config_token,
    job_key,
    program_fingerprint,
    stats_digest as _stats_digest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spec import RunSpec

#: subdirectory (under the cache root) where corrupt entries are parked
QUARANTINE_DIR = "quarantine"

#: subdirectory (under the cache root) owned by the sampling checkpoint
#: store (:mod:`repro.sampling.checkpoint`); its files are envelopes of a
#: different schema, so every result-entry walk must prune it — auditing
#: them here would quarantine perfectly good checkpoints
CHECKPOINT_SUBDIR = "checkpoints"

#: file (directly under the cache root) holding the runners' lifetime
#: source record; excluded from entry walks by name
COUNTERS_FILE = "counters.json"

#: where a resolved run's result came from, in rendering order: the
#: names of a runner's one source record (``ParallelRunner.tally``) and
#: the only keys :data:`COUNTERS_FILE` keeps
SOURCES = ("memo", "disk", "derived", "sim", "failed")


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro-sim")


def cache_enabled() -> bool:
    if os.environ.get("REPRO_FAULTS"):
        return False
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "off", "no")


class CacheEntryError(ValueError):
    """An entry exists but cannot be trusted (corrupt / checksum fail)."""


def _decode_entry(text: str) -> Optional[dict]:
    """Parse + verify one envelope; stats dict, None on schema mismatch.

    Raises :class:`CacheEntryError` on anything untrustworthy: junk
    bytes, a missing envelope field, or a checksum mismatch.
    """
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise CacheEntryError(f"unparsable JSON: {exc}") from None
    if not isinstance(envelope, dict) or "stats" not in envelope \
            or "sha256" not in envelope or "schema" not in envelope:
        raise CacheEntryError("not a cache envelope")
    if envelope["schema"] != CACHE_SCHEMA:
        return None  # another version's valid data: a miss, not corruption
    stats = envelope["stats"]
    if _stats_digest(stats) != envelope["sha256"]:
        raise CacheEntryError("checksum mismatch")
    return stats


class ResultCache:
    """On-disk ``SimStats`` store with atomic writes and checksummed reads.

    A ``ResultCache`` is cheap to construct; the root directory is only
    created on the first write.
    """

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        self.root = root or default_cache_dir()
        self.enabled = cache_enabled() if enabled is None else enabled
        #: entries moved aside by this instance (key paths, for reporting)
        self.quarantined: List[str] = []

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a corrupt entry under ``<root>/quarantine/`` (best effort)."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined.append(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[SimStats]:
        """The cached stats for ``key``, or None.

        A miss is silent (absent, disabled, or a different schema); a
        *corrupt* entry — junk bytes or a failed checksum — is moved to
        the quarantine directory so it is never consulted again and the
        evidence survives.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            stats = _decode_entry(text)
        except CacheEntryError as exc:
            self._quarantine(path, str(exc))
            return None
        if stats is None:
            return None
        try:
            return SimStats.from_dict(stats)
        except (ValueError, TypeError, KeyError):
            self._quarantine(path, "stats payload does not deserialise")
            return None

    def put(self, key: str, stats: SimStats,
            spec: Optional["RunSpec"] = None) -> None:
        """Store ``stats`` under ``key`` (write-to-temp + atomic rename).

        When the producing :class:`RunSpec` is known it is recorded in
        the envelope for provenance — outside the integrity checksum,
        so spec-less entries from older writers verify unchanged.
        """
        if not self.enabled:
            return
        stats_dict = stats.to_dict()
        envelope: Dict[str, object] = {
            "schema": CACHE_SCHEMA,
            "sha256": _stats_digest(stats_dict),
            "stats": stats_dict}
        if spec is not None:
            envelope["spec"] = spec.to_dict()
        path = self.path_for(key)
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(envelope, fh, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # a read-only or full cache never fails the simulation

    # -- accounting ------------------------------------------------------
    def _counters_path(self) -> str:
        return os.path.join(self.root, COUNTERS_FILE)

    def load_counters(self) -> Dict[str, int]:
        """The persisted lifetime record (empty when absent/unreadable;
        a name it lacks reads as zero, a key outside :data:`SOURCES` is
        dropped)."""
        try:
            with open(self._counters_path()) as fh:
                data = json.load(fh)
            return {k: int(data[k]) for k in SOURCES if k in data}
        except (OSError, ValueError, TypeError, AttributeError):
            return {}

    def merge_counters(self, delta: Dict[str, int]) -> bool:
        """Add a runner's record ``delta`` into ``<root>/counters.json``.

        Best-effort operational accounting, not results: the merge is a
        read-add-rename, so two processes merging at the same instant
        can drop a few increments — never corrupt the file.  False only
        when the write failed (the caller keeps the delta for its next
        merge); a disabled cache or an all-zero delta writes nothing.
        """
        if not self.enabled or not any(delta.values()):
            return True
        totals = self.load_counters()
        for name, n in delta.items():
            totals[name] = totals.get(name, 0) + n
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(totals, fh)
                os.replace(tmp, self._counters_path())
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        return True

    def _entries(self):
        for dirpath, dirnames, filenames in os.walk(self.root):
            if dirpath == self.root:
                dirnames[:] = [d for d in dirnames
                               if d != CHECKPOINT_SUBDIR]
            if os.path.basename(dirpath) == QUARANTINE_DIR:
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(".json") and name != COUNTERS_FILE:
                    yield os.path.join(dirpath, name)

    def verify(self, quarantine: bool = True) -> Dict[str, object]:
        """Audit every entry: parse, checksum, deserialise.

        Returns counters plus the list of bad paths; with ``quarantine``
        (the default) bad entries are moved aside like a failing read
        would.  Other-schema entries count as ``stale`` and are left in
        place.  ``with_spec`` counts the valid entries carrying run-spec
        provenance in their envelope.  ``quarantined`` is the total
        parked under ``<root>/quarantine/`` *after* this audit — newly
        moved entries plus anything quarantined earlier — which is what
        ``repro cache verify --strict`` gates on.
        """
        ok = stale = with_spec = 0
        bad: List[Tuple[str, str]] = []
        for path in self._entries():
            try:
                with open(path) as fh:
                    text = fh.read()
                stats = _decode_entry(text)
                if stats is None:
                    stale += 1
                    continue
                SimStats.from_dict(stats)
                ok += 1
                if "spec" in json.loads(text):
                    with_spec += 1
            except CacheEntryError as exc:
                bad.append((path, str(exc)))
            except (OSError, ValueError, TypeError, KeyError) as exc:
                bad.append((path, f"stats payload does not deserialise: "
                                  f"{exc}"))
        if quarantine:
            for path, reason in bad:
                self._quarantine(path, reason)
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            parked = sum(1 for name in os.listdir(qdir)
                         if name.endswith(".json"))
        except OSError:
            parked = 0
        if not quarantine:
            parked += len(bad)
        return {"root": self.root, "ok": ok, "stale": stale,
                "with_spec": with_spec, "corrupt": len(bad),
                "quarantined": parked,
                "bad": [{"path": p, "reason": r} for p, r in bad]}

    def info(self) -> Dict[str, object]:
        """Entry count, footprint and the lifetime source record
        (``cache info``)."""
        entries = 0
        size = 0
        quarantined = 0
        for dirpath, dirnames, filenames in os.walk(self.root):
            if dirpath == self.root:
                dirnames[:] = [d for d in dirnames
                               if d != CHECKPOINT_SUBDIR]
            in_quarantine = os.path.basename(dirpath) == QUARANTINE_DIR
            for name in filenames:
                if name.endswith(".json") and name != COUNTERS_FILE:
                    if in_quarantine:
                        quarantined += 1
                        continue
                    entries += 1
                    try:
                        size += os.path.getsize(os.path.join(dirpath, name))
                    except OSError:
                        pass
        return {"root": self.root, "enabled": self.enabled,
                "entries": entries, "bytes": size,
                "quarantined": quarantined,
                "counters": self.load_counters()}

    def clear(self) -> int:
        """Delete every cache entry (and reset the lifetime record);
        returns the number of entries removed."""
        removed = 0
        for dirpath, dirnames, filenames in os.walk(self.root):
            if dirpath == self.root:
                dirnames[:] = [d for d in dirnames
                               if d != CHECKPOINT_SUBDIR]
            for name in filenames:
                if name == COUNTERS_FILE:
                    continue
                if name.endswith(".json") or name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        try:
            os.unlink(self._counters_path())
        except OSError:
            pass
        return removed
