"""Speculative data memory (Section 2.4.6).

A small, cheap, *slow* memory — in the spirit of a hierarchical register
file — that holds replica results instead of the monolithic register file.
It has 2 write ports (from the functional units) and 2 read ports (to the
register file), and is twice as slow as the register file (2 cycles by
default).

Values move to the architectural register file through *copy* instructions
inserted when a validation instruction reaches decode; dependents of the
validated instruction become dependents of the copy.  The timing model
charges the copy path as extra latency on the validated instruction's
result availability and applies per-cycle read-port contention.

The memory's positions are a :class:`~repro.uarch.rename.FreeList` owned
by the replica manager, which records the capacity proof of DESIGN §9.7
(``SimStats.spec_mem_slack``); this class models latency and ports only.
"""

from __future__ import annotations


class SpecDataMemory:
    """Latency + port bookkeeping for the speculative data memory."""

    def __init__(self, latency: int = 2, read_ports: int = 2,
                 write_ports: int = 2):
        self.latency = latency
        self.read_ports = read_ports
        self.write_ports = write_ports
        self._cycle = -1
        self._reads_this_cycle = 0

    def copy_latency(self, cycle: int) -> int:
        """Latency of one validation copy issued at ``cycle``.

        Reads beyond the per-cycle port budget queue behind earlier ones.
        """
        if cycle != self._cycle:
            self._cycle = cycle
            self._reads_this_cycle = 0
        queue_delay = self._reads_this_cycle // self.read_ports
        self._reads_this_cycle += 1
        return self.latency + queue_delay
