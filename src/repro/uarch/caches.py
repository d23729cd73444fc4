"""Multi-level data-cache hierarchy with wide-bus support.

The hierarchy returns a *latency* per access and maintains LRU state; the
core's scheduler turns latencies into completion times.  Write-back,
write-allocate.  Outstanding L1 misses are capped by the MSHR count
(Table 1: up to 16), modelled as a sliding window of miss-completion
times.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .config import CacheConfig, ProcessorConfig


class CacheLevel:
    """One set-associative LRU cache level (tag store only)."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.num_sets = max(1, cfg.size // (cfg.line * cfg.assoc))
        self.assoc = cfg.assoc
        self.line = cfg.line
        self.hit_latency = cfg.hit_latency
        # Per-set list of tags in MRU -> LRU order, allocated on first
        # touch: a run visits a small fraction of the sets, and building
        # every list up front dominated ``Core()`` construction.
        self.sets: List[Optional[List[int]]] = [None] * self.num_sets
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> Tuple[int, int]:
        line_addr = addr // self.line
        return line_addr % self.num_sets, line_addr // self.num_sets

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit.  Misses allocate the line."""
        idx, tag = self._locate(addr)
        ways = self.sets[idx]
        if ways is None:
            self.misses += 1
            self.sets[idx] = [tag]
            return False
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            ways.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state."""
        idx, tag = self._locate(addr)
        ways = self.sets[idx]
        return ways is not None and tag in ways


class MemoryHierarchy:
    """L1D + L2 + L3 + main memory, with MSHR-limited outstanding misses."""

    def __init__(self, cfg: ProcessorConfig):
        self.cfg = cfg
        self.l1 = CacheLevel(cfg.l1d)
        self.l2 = CacheLevel(cfg.l2)
        self.l3 = CacheLevel(cfg.l3)
        self.memory_latency = cfg.memory_latency
        self.mshrs = cfg.mshrs
        #: completion cycles of in-flight L1 misses (pruned lazily)
        self._outstanding: List[int] = []

    def load_latency(self, addr: int, now: int) -> int:
        """Latency of a load access started at ``now`` (L1 state updated).

        An L1 miss consumes an MSHR until the fill returns; if none is
        available the access is delayed until the oldest outstanding miss
        completes (returned as extra latency).
        """
        if self.l1.access(addr):
            return self.l1.hit_latency
        delay = 0
        self._outstanding = [c for c in self._outstanding if c > now]
        if len(self._outstanding) >= self.mshrs:
            delay = min(self._outstanding) - now
        if self.l2.access(addr):
            lat = delay + self.l2.hit_latency
        elif self.l3.access(addr):
            lat = delay + self.l3.hit_latency
        else:
            lat = delay + self.memory_latency
        self._outstanding.append(now + lat)
        return lat

    def store_access(self, addr: int) -> None:
        """A committing store touches the hierarchy (write-allocate)."""
        if not self.l1.access(addr):
            if not self.l2.access(addr):
                self.l3.access(addr)
