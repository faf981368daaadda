"""A classic set-associative cache with true-LRU replacement.

Used for the L1 instruction cache (with the very wide lines the stream
architecture relies on, §3.4), the L1 data cache, the unified L2, and as
the storage array of the trace cache (which indexes by trace id rather
than address, but shares the geometry/LRU mechanics).

The cache sits on the simulator's hottest path (every fetch cycle and
every load/store probes one), so the event counters are plain integer
slot attributes rather than a string-keyed bag; they are exported in
:class:`~repro.common.stats.CounterBag` form only when statistics are
summarized.
"""

from __future__ import annotations

from typing import List

from repro.common.params import CacheParams
from repro.common.stats import CounterBag


class Cache:
    """Set-associative LRU cache keyed by line address.

    ``access`` combines probe + fill (the common case in a simulator);
    ``probe`` and ``fill`` are exposed separately for engines that need
    to model a miss without immediately filling (e.g. selective trace
    storage deciding not to insert).
    """

    __slots__ = (
        "params",
        "name",
        "accesses",
        "misses",
        "evictions",
        "_sets",
        "_offset_bits",
        "_index_mask",
        "_tag_shift",
        "_assoc",
    )

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.accesses = 0
        self.misses = 0
        self.evictions = 0
        # Each set is an MRU-first list of tags; LRU is the last element.
        self._sets: List[List[int]] = [[] for _ in range(params.num_sets)]
        self._offset_bits = params.line_bytes.bit_length() - 1
        self._index_mask = params.num_sets - 1
        # When num_sets == 1 the mask is 0 and the shift is 0: every line
        # maps to set 0 and the whole line address is the tag, so the
        # general expressions below already cover the degenerate case.
        self._tag_shift = self._index_mask.bit_length()
        self._assoc = params.assoc

    # ------------------------------------------------------------------
    def line_address(self, addr: int) -> int:
        return addr >> self._offset_bits

    def _locate(self, addr: int) -> tuple[List[int], int]:
        line = addr >> self._offset_bits
        return self._sets[line & self._index_mask], line >> self._tag_shift

    # ------------------------------------------------------------------
    def access(self, addr: int) -> bool:
        """Probe and update LRU; fill on miss.  Returns hit?"""
        line = addr >> self._offset_bits
        ways = self._sets[line & self._index_mask]
        tag = line >> self._tag_shift
        self.accesses += 1
        # MRU fast path: consecutive touches of one line are the common
        # case and need no list reshuffle (remove + reinsert at 0 would
        # be an identity operation).
        if ways and ways[0] == tag:
            return True
        try:
            ways.remove(tag)
        except ValueError:
            self.misses += 1
            ways.insert(0, tag)
            if len(ways) > self._assoc:
                ways.pop()
                self.evictions += 1
            return False
        ways.insert(0, tag)
        return True

    def probe(self, addr: int) -> bool:
        """Check residency without changing any state."""
        ways, tag = self._locate(addr)
        return tag in ways

    def fill(self, addr: int) -> None:
        """Insert a line (MRU position), evicting the LRU if needed."""
        ways, tag = self._locate(addr)
        if tag in ways:
            ways.remove(tag)
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()
            self.evictions += 1

    def invalidate_all(self) -> None:
        for ways in self._sets:
            ways.clear()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CounterBag:
        """The event counters in mergeable :class:`CounterBag` form.

        Built on demand: the raw counters are integer slots so the hot
        probe path never touches a dictionary.
        """
        return CounterBag({
            "accesses": self.accesses,
            "misses": self.misses,
            "evictions": self.evictions,
        })

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        p = self.params
        return (
            f"Cache({self.name}: {p.size_bytes // 1024}KB {p.assoc}-way "
            f"{p.line_bytes}B lines)"
        )
