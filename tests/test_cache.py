"""Set-associative cache model."""

import pytest

from repro.cache.cache import _EMPTY_LOOKUP, AccessResult, Cache
from repro.cache.partition import WayPartition
from repro.core.matrix import EvaluationMatrix
from repro.cpu.soc import SoC, make_server_soc


@pytest.fixture
def cache():
    return Cache("test", num_sets=8, ways=2, line_size=64)


class TestGeometry:
    def test_line_addr(self, cache):
        assert cache.line_addr(0x1234) == 0x1200
        assert cache.line_addr(0x1240) == 0x1240

    def test_set_index_wraps(self, cache):
        assert cache.set_index(0x000) == 0
        assert cache.set_index(0x040) == 1
        assert cache.set_index(0x200) == 0  # 8 sets * 64B wrap

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 0, 2)
        with pytest.raises(ValueError):
            Cache("bad", 8, 2, line_size=48)
        with pytest.raises(ValueError):
            Cache("bad", 8, 2, line_size=0)

    def test_custom_index_fn(self):
        cache = Cache("x", 8, 1, index_fn=lambda addr: addr // 64 + 3)
        assert cache.set_index(0) == 3


class TestHitMiss:
    def test_first_access_misses_then_hits(self, cache):
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.access(0x1038).hit  # same line

    def test_different_lines_independent(self, cache):
        cache.access(0x1000)
        assert not cache.access(0x1040).hit

    def test_stats(self, cache):
        cache.access(0x1000)
        cache.access(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5


class TestEviction:
    def test_lru_eviction_within_set(self, cache):
        # 2 ways: third distinct line in the same set evicts the LRU.
        a, b, c = 0x0000, 0x0200, 0x0400  # all set 0
        cache.access(a)
        cache.access(b)
        result = cache.access(c)
        assert result.evicted == a
        assert cache.probe(b) and cache.probe(c) and not cache.probe(a)

    def test_hit_refreshes_lru(self, cache):
        a, b, c = 0x0000, 0x0200, 0x0400
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a
        result = cache.access(c)
        assert result.evicted == b

    def test_eviction_counted(self, cache):
        for i in range(3):
            cache.access(i * 0x200)
        assert cache.stats.evictions == 1

    def test_prefers_free_way(self):
        cache = Cache("c", num_sets=1, ways=4)
        for i in range(4):
            cache.access(i * 0x40)
        cache.flush_line(0x40)  # frees way 1, which is not the LRU way
        assert cache.access(0x400).evicted is None
        assert cache.stats.evictions == 0
        assert not cache.probe(0x40) and cache.probe(0x000)

    def test_evicts_least_recent(self):
        cache = Cache("c", num_sets=1, ways=4)
        for i in range(4):
            cache.access(i * 0x40)
        cache.access(0x000)  # hit: way 0 is now the most recent
        assert cache.access(0x400).evicted == 0x040

    def test_respects_allowed_mask(self):
        cache = Cache("c", num_sets=1, ways=4)
        partition = WayPartition(4)
        partition.assign("upper", 0b1100)
        cache.partition = partition
        for i in range(4):
            cache.access(i * 0x40)  # default domain fills ways 0..3
        # The LRU line (way 0) is off limits: the LRU allowed way goes.
        assert cache.access(0x400, domain="upper").evicted == 0x080
        assert cache.probe(0x000)

    def test_no_allowed_way_raises(self):
        cache = Cache("c", num_sets=1, ways=4)
        cache.partition = WayPartition.split_evenly(4, ["a", "b"])
        with pytest.raises(ValueError, match="no way allowed"):
            cache.access(0x000)  # unassigned domain: default mask is 0


class TestFlush:
    def test_flush_line(self, cache):
        cache.access(0x1000)
        assert cache.flush_line(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.flush_line(0x1000)  # already gone

    def test_flush_all(self, cache):
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.flush_all() == 2
        assert cache.resident_lines() == []

    def test_flush_domain(self, cache):
        cache.access(0x1000, domain="a")
        cache.access(0x2000, domain="b")
        assert cache.flush_domain("a") == 1
        assert not cache.probe(0x1000)
        assert cache.probe(0x2000)


class TestPartitionedCache:
    def test_domains_cannot_evict_each_other(self):
        cache = Cache("p", num_sets=4, ways=4)
        partition = WayPartition.split_evenly(4, ["victim", "attacker"])
        cache.partition = partition
        # Victim fills its two ways in set 0.
        cache.access(0x000, domain="victim")
        cache.access(0x100, domain="victim")
        # Attacker hammers the same set with many lines.
        for i in range(8):
            cache.access(0x200 + i * 0x100, domain="attacker")
        assert cache.probe(0x000)
        assert cache.probe(0x100)

    def test_domain_of_line(self, cache):
        cache.access(0x1000, domain="enclave-1")
        assert cache.domain_of_line(0x1000) == "enclave-1"
        assert cache.domain_of_line(0x2000) is None

    def test_set_occupancy(self, cache):
        assert cache.set_occupancy(0) == 0
        cache.access(0x0000)
        cache.access(0x0200)
        assert cache.set_occupancy(0) == 2


class TestWriteback:
    def test_write_marks_dirty_and_hits(self, cache):
        cache.access(0x1000, is_write=True)
        assert cache.access(0x1000, is_write=False).hit


def _rows(cache, idx):
    return (cache._tags[idx], cache._domains[idx], cache._dirty[idx],
            cache._last_use[idx])


def _stats(cache):
    s = cache.stats
    return (s.hits, s.misses, s.evictions, s.flushes)


def _unbuilt(cache):
    """Indices of sets whose rows have not been built."""
    return [idx for idx in range(cache.num_sets)
            if cache._lookup[idx] is _EMPTY_LOOKUP
            and _rows(cache, idx) == (None, None, None, None)]


class TestLazySets:
    """A set's rows are built on its first fill and nowhere else."""

    def test_fresh_cache_reads_as_empty_without_building(self, cache):
        assert not cache.probe(0x1000)
        assert not cache.flush_line(0x1000)
        assert cache.flush_all() == 0
        assert cache.flush_domain(None) == 0
        assert cache.flush_domain("enclave") == 0
        assert [cache.set_occupancy(i) for i in range(8)] == [0] * 8
        assert cache.domain_of_line(0x1000) is None
        assert cache.resident_lines() == []
        assert _stats(cache) == (0, 0, 0, 0)
        assert _unbuilt(cache) == list(range(8))

    def test_server_soc_builds_no_rows(self):
        soc = make_server_soc()
        levels = (*soc.hierarchy.l1s, soc.hierarchy.l2)
        for level in levels:
            assert _unbuilt(level) == list(range(level.num_sets))

    def test_shared_empty_lookup_survives_matrix_and_flushes(self,
                                                              monkeypatch):
        socs = []
        init = SoC.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            socs.append(self)

        monkeypatch.setattr(SoC, "__init__", recording_init)
        EvaluationMatrix(quick=True).evaluate()
        assert socs
        for soc in socs:
            for level in (*soc.hierarchy.l1s, soc.hierarchy.l2):
                level.flush_domain(None)
                level.flush_all()
                assert level.resident_lines() == []
        assert len(_EMPTY_LOOKUP) == 0

    def test_scripted_set_history(self):
        """First fill, hits, an eviction, a flush and a refill of one
        set: the victims, stamps and stats the eager layout produced."""
        cache = Cache("s", num_sets=4, ways=2)
        a, b, c, d = 0x040, 0x140, 0x240, 0x340  # all set 1
        assert cache.access(a, domain="x") == AccessResult(False, 1, 4)
        assert cache.access(a, is_write=True) == AccessResult(True, 1, 4)
        assert cache.access(b, domain="y") == AccessResult(False, 1, 4)
        assert cache.access(a) == AccessResult(True, 1, 4)
        assert cache.access(c, domain="z") == AccessResult(False, 1, 4, b)
        assert _rows(cache, 1) == ([1, 9], ["x", "z"], [True, False],
                                   [4, 5])
        assert cache.flush_line(a)
        assert _rows(cache, 1)[0] == [None, 9]
        assert cache.access(d, is_write=True, domain="w") == AccessResult(
            False, 1, 4)
        assert _rows(cache, 1) == ([13, 9], ["w", "z"], [True, False],
                                   [6, 5])
        assert cache._clock == 6
        assert _stats(cache) == (2, 4, 1, 1)
        assert cache._lookup[1] == {13: 0, 9: 1}
        assert _unbuilt(cache) == [0, 2, 3]
        assert cache.flush_domain("z") == 1
        assert cache.flush_all() == 1
        assert _rows(cache, 1)[0] == [None, None]
        assert _stats(cache) == (2, 4, 1, 3)
