"""The physical-register free list; the rename map is ``Core.owner``."""


class FreeList:
    """Counted capacity pool: the physical-register free list (values
    live with instructions) or the speculative data memory's positions.

    For registers, ``capacity`` is the number available for renaming
    beyond the 64 architectural ones.  The control-independence
    mechanism's replicas draw from the same pool in monolithic mode
    (Section 2.4.2), and from a second ``FreeList`` sized
    ``spec_mem_size`` when a speculative data memory holds them
    (Section 2.4.6).

    ``slack`` is the proof behind capacity derivation (DESIGN §9.7):
    every allocation decision so far had at least ``slack`` entries to
    spare, so a pool up to ``slack`` entries smaller would have decided
    each one the same way, with ``free`` lower by a constant.  Every
    read of ``free`` that steers the machine goes through a method
    below, each recording its margin.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.free = capacity
        self.slack = capacity

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    def alloc(self, n: int = 1) -> bool:
        """Try to allocate ``n`` registers; all-or-nothing."""
        free = self.free - n
        if free < 0:
            return False  # a smaller file refuses too: no margin
        self.free = free
        if free < self.slack:
            self.slack = free
        return True

    def alloc_up_to(self, n: int, headroom: int = 0) -> int:
        """Allocate as many as possible, up to ``n``, while leaving
        ``headroom`` registers free; returns the count."""
        avail = self.free - max(0, headroom)
        if avail <= 0:
            return 0
        if avail < n:
            n = avail
            self.slack = 0  # cut short: any smaller file grants less
        elif avail - n < self.slack:
            self.slack = avail - n
        self.free -= n
        return n

    def free_at_least(self, need: int) -> bool:
        """Are ``min(need, capacity - 4)`` registers free?  (The stalled
        vector instruction's resume test.)"""
        free = self.free
        if free >= need:
            if free - need < self.slack:
                self.slack = free - need
            return True
        # Open only within 4 of full, which a smaller file reaches at
        # the same point: no margin.
        return free >= self.capacity - 4

    def release(self, n: int = 1) -> None:
        self.free += n
        assert self.free <= self.capacity, "free-list overflow (double release)"
