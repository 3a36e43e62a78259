"""Physically-indexed, physically-tagged set-associative LRU cache."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

#: Signature for custom set-index functions (randomised mapping).
IndexFn = Callable[[int], int]

#: The lookup every never-filled set shares; read-only, so a stray write
#: raises instead of filling every untouched set at once.
_EMPTY_LOOKUP = MappingProxyType({})


@dataclass
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class AccessResult(NamedTuple):
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    latency: int
    evicted: int | None = None  # line base address displaced by this fill


class Cache:
    """One cache level with true-LRU replacement.

    Addresses are *physical*; the MMU translates before the hierarchy is
    consulted.  ``domain`` labels the security domain of each access
    (process, enclave id, world); a :class:`~repro.cache.partition.WayPartition`
    installed via :attr:`partition` limits which ways a domain may fill —
    the paper's "cache partitioning" defence [39].  ``index_fn`` overrides
    the set-index computation — the "randomised mapping" defence [40].

    State is held per set as parallel per-way lists — the line tag
    (``tag = addr >> log2(line_size)``; ``None`` marks an invalid way),
    the filling domain, the dirty bit and the LRU stamp — plus a
    ``tag -> way`` dict for the lookup.  Stamps come from one cache-wide
    clock, so within a set the least-recently-used line is the one with
    the smallest stamp.

    A set's rows are built on its first fill: until then its four per-way
    rows are ``None`` and its lookup is one read-only empty mapping shared
    by every untouched set, which is never mutated.  Every operation other
    than a filling :meth:`access` treats such a set as empty and leaves
    it unbuilt, so construction allocates no per-set rows.
    """

    def __init__(self, name: str, num_sets: int, ways: int,
                 line_size: int = 64, hit_latency: int = 4,
                 index_fn: IndexFn | None = None) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.index_fn = index_fn
        self.partition = None  # WayPartition | None
        self.stats = CacheStats()
        self._shift = line_size.bit_length() - 1
        self._lookup: list[dict[int, int] | MappingProxyType] = [
            _EMPTY_LOOKUP] * num_sets
        self._tags: list[list[int | None] | None] = [None] * num_sets
        self._domains: list[list[str | None] | None] = [None] * num_sets
        self._dirty: list[list[bool] | None] = [None] * num_sets
        self._last_use: list[list[int] | None] = [None] * num_sets
        self._clock = 0
        # Results are immutable, so the hit and free-way-fill outcomes are
        # per-set singletons, built on first use; only evicting fills
        # allocate.
        self._hit_results: list[AccessResult | None] = [None] * num_sets
        self._fill_results: list[AccessResult | None] = [None] * num_sets

    # -- geometry ------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Base address of the line containing ``addr``."""
        return addr & ~(self.line_size - 1)

    def set_index(self, addr: int) -> int:
        """Set index for ``addr`` (honouring a custom index function)."""
        if self.index_fn is not None:
            return self.index_fn(addr) % self.num_sets
        return (addr >> self._shift) % self.num_sets

    # -- operations ------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False,
               domain: str | None = None) -> AccessResult:
        """Look up ``addr``; on a miss, fill it (evicting the LRU line)."""
        tag = addr >> self._shift
        if self.index_fn is None:
            idx = tag % self.num_sets
        else:
            idx = self.index_fn(addr) % self.num_sets
        lookup = self._lookup[idx]
        way = lookup.get(tag)
        self._clock = clock = self._clock + 1
        if way is not None:
            self.stats.hits += 1
            self._last_use[idx][way] = clock
            if is_write:
                self._dirty[idx][way] = True
            result = self._hit_results[idx]
            if result is None:
                result = self._hit_results[idx] = AccessResult(
                    True, idx, self.hit_latency)
            return result

        self.stats.misses += 1
        tags = self._tags[idx]
        if tags is None:
            ways = self.ways
            self._lookup[idx] = lookup = {}
            self._tags[idx] = tags = [None] * ways
            self._domains[idx] = [None] * ways
            self._dirty[idx] = [False] * ways
            self._last_use[idx] = [0] * ways
        last_use = self._last_use[idx]
        if self.partition is not None:
            way = self._partitioned_victim(tags, last_use, domain)
        elif len(lookup) < self.ways:
            way = tags.index(None)
        else:
            way = last_use.index(min(last_use))
        old = tags[way]
        tags[way] = tag
        lookup[tag] = way
        last_use[way] = clock
        self._domains[idx][way] = domain
        self._dirty[idx][way] = is_write
        if old is None:
            result = self._fill_results[idx]
            if result is None:
                result = self._fill_results[idx] = AccessResult(
                    False, idx, self.hit_latency)
            return result
        del lookup[old]
        self.stats.evictions += 1
        return AccessResult(False, idx, self.hit_latency, old << self._shift)

    def _partitioned_victim(self, tags: list[int | None],
                            last_use: list[int], domain: str | None) -> int:
        """First free way the partition allows ``domain``, else its LRU
        allowed way."""
        allowed = [way for way, ok in enumerate(
            self.partition.allowed_ways(domain, self.ways)) if ok]
        if not allowed:
            raise ValueError("no way allowed for this domain")
        for way in allowed:
            if tags[way] is None:
                return way
        return min(allowed, key=last_use.__getitem__)

    def probe(self, addr: int) -> bool:
        """Presence check without touching replacement state."""
        return (addr >> self._shift) in self._lookup[self.set_index(addr)]

    def flush_line(self, addr: int) -> bool:
        """Invalidate the line containing ``addr``; True if it was present."""
        idx = self.set_index(addr)
        lookup = self._lookup[idx]
        if not lookup:
            return False
        way = lookup.pop(addr >> self._shift, None)
        if way is None:
            return False
        self._tags[idx][way] = None
        self.stats.flushes += 1
        return True

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of lines dropped."""
        count = 0
        for lookup, tags in zip(self._lookup, self._tags):
            if lookup:
                count += len(lookup)
                for way in lookup.values():
                    tags[way] = None
                lookup.clear()
        self.stats.flushes += count
        return count

    def flush_domain(self, domain: str | None) -> int:
        """Invalidate every line filled by ``domain`` (enclave exit flush)."""
        count = 0
        for lookup, tags, domains in zip(self._lookup, self._tags,
                                         self._domains):
            if not lookup:
                continue
            for tag, way in list(lookup.items()):
                if domains[way] == domain:
                    del lookup[tag]
                    tags[way] = None
                    count += 1
        self.stats.flushes += count
        return count

    # -- inspection ------------------------------------------------------------

    def resident_lines(self) -> list[int]:
        """Base addresses of all valid lines (diagnostics/tests)."""
        return [tag << self._shift for tags in self._tags if tags is not None
                for tag in tags if tag is not None]

    def set_occupancy(self, idx: int) -> int:
        """Number of valid lines in set ``idx``."""
        return len(self._lookup[idx])

    def domain_of_line(self, addr: int) -> str | None:
        """Filling domain of the resident line containing ``addr``."""
        idx = self.set_index(addr)
        way = self._lookup[idx].get(addr >> self._shift)
        return None if way is None else self._domains[idx][way]
