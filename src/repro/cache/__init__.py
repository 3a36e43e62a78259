"""Cache structures and the timing channels they create.

Every attack in Section 4 of the paper ultimately measures one of these
structures.  The models are behavioural but cycle-attributed: an access
returns which level hit and a latency, which is exactly the signal
Evict+Time / Prime+Probe / Flush+Reload quantify.

* :class:`Cache` — physically-indexed set-associative LRU cache with a
  pluggable index function.
* :class:`CacheHierarchy` — per-core L1s over a shared last-level cache,
  with the defences the paper contrasts: way partitioning [39], randomised
  index mapping [40], page colouring (Sanctum), and cache exclusion
  (Sanctuary).
* :class:`TLB` / :class:`BranchTargetBuffer` — "any cache structure shared
  by the attacker and the victim can be exploited".
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "AccessResult": "cache",
    "BranchTargetBuffer": "btb",
    "Cache": "cache",
    "CacheHierarchy": "hierarchy",
    "CacheStats": "cache",
    "HierarchyConfig": "hierarchy",
    "MemoryAccess": "hierarchy",
    "RandomizedIndexing": "randmap",
    "TLB": "tlb",
    "WayPartition": "partition",
    "color_of": "partition",
    "frames_of_color": "partition",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
