"""Per-run manifests: everything needed to explain (and diff) a run.

A :class:`RunManifest` is the run's identity card, written alongside the
trace/metrics artefacts: package version, the exact knobs and seed, the
host platform, one outcome row per cell (status / attempts / error — the
same taxonomy :class:`~repro.runner.stats.CellOutcome` carries), the
payload fingerprint of every trustworthy cell, a metrics snapshot, and
the runner's cost summary.  Keys are emitted sorted, so two manifests
from two runs are directly ``diff``-able text artifacts, and
:meth:`RunManifest.diff` explains the interesting part — which cells
changed outcome or payload — in one list.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

SCHEMA = "repro-run-manifest/1"


def host_platform() -> dict[str, str]:
    """The measurement host, as recorded in every manifest."""
    import platform as _platform

    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "machine": _platform.machine(),
        "system": _platform.system(),
    }


@dataclass
class RunManifest:
    """One run's inputs, outcomes, and evidence pointers.

    ``outcomes`` and ``fingerprints`` are keyed ``"platform/category"``;
    an outcome row is ``{"status", "attempts", "error"}``.  ``metrics``
    is a :meth:`~repro.obs.metrics.MetricsRegistry.to_json` snapshot and
    ``runner`` the cost summary (mode, jobs, cache hits, wall time).
    """

    version: str
    command: str = ""
    seed: int | None = None
    knobs: dict = field(default_factory=dict)
    host: dict = field(default_factory=host_platform)
    outcomes: dict[str, dict] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    runner: dict = field(default_factory=dict)
    schema: str = SCHEMA

    # -- construction ------------------------------------------------------

    @classmethod
    def from_stats(cls, version: str, stats, *, command: str = "",
                   seed: int | None = None, knobs: dict | None = None,
                   fingerprints: dict[str, str] | None = None,
                   metrics: dict | None = None) -> "RunManifest":
        """Build from a :class:`~repro.runner.stats.RunnerStats`."""
        outcomes = {
            f"{platform}/{category}": {
                "status": outcome.status,
                "attempts": outcome.attempts,
                "error": outcome.error,
            }
            for (platform, category), outcome in sorted(
                stats.outcomes.items())
        }
        return cls(
            version=version, command=command, seed=seed,
            knobs=dict(knobs or {}), outcomes=outcomes,
            fingerprints=dict(sorted((fingerprints or {}).items())),
            metrics=metrics or {},
            runner={
                "mode": stats.mode,
                "jobs": stats.jobs,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "corrupt_entries": stats.corrupt_entries,
                "pool_rebuilds": stats.pool_rebuilds,
                "retries_total": stats.retries_total,
                "cells_failed": stats.cells_failed,
                "wall_time_s": round(stats.wall_time_s, 6),
            })

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document: {data.get('schema')!r}")
        fields_ = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in fields_})

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))

    # -- comparison --------------------------------------------------------

    def diff(self, other: "RunManifest") -> list[str]:
        """Human-readable differences that matter for reproducibility:
        version/seed/knob drift, outcome changes, payload divergence."""
        notes: list[str] = []
        for attr in ("version", "seed", "knobs"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if mine != theirs:
                notes.append(f"{attr}: {mine!r} != {theirs!r}")
        cells = sorted(set(self.outcomes) | set(other.outcomes))
        for cell in cells:
            mine = (self.outcomes.get(cell) or {}).get("status")
            theirs = (other.outcomes.get(cell) or {}).get("status")
            if mine != theirs:
                notes.append(f"outcome {cell}: {mine} != {theirs}")
        cells = sorted(set(self.fingerprints) | set(other.fingerprints))
        for cell in cells:
            mine = self.fingerprints.get(cell)
            theirs = other.fingerprints.get(cell)
            if mine != theirs:
                notes.append(
                    f"payload {cell}: "
                    f"{(mine or 'absent')[:12]} != {(theirs or 'absent')[:12]}")
        return notes
