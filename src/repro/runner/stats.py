"""Measured metadata of one runner invocation."""

from __future__ import annotations

from dataclasses import dataclass, field

#: The full outcome taxonomy, in "healthiest first" display order.
OUTCOME_STATUSES = ("ok", "ok-after-retry", "degraded-to-serial",
                    "timed-out", "failed")


@dataclass(frozen=True)
class CellOutcome:
    """How one cell's execution ended, structurally.

    ``status`` is one of :data:`OUTCOME_STATUSES`:

    * ``"ok"`` — first attempt succeeded (or the payload came from
      cache, in which case ``attempts`` is 0);
    * ``"ok-after-retry"`` — succeeded, but only after ≥1 retry;
    * ``"degraded-to-serial"`` — succeeded, but in the parent process
      after the worker pool was abandoned;
    * ``"timed-out"`` — every permitted attempt exceeded the per-cell
      timeout; no payload exists;
    * ``"failed"`` — every permitted attempt raised, crashed its
      worker, or returned a corrupt payload; no payload exists.

    ``attempts`` counts executions (0 = pure cache hit); ``error`` holds
    the last failure's description for the unhealthy statuses.
    """

    status: str
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether a trustworthy payload exists for this cell."""
        return self.status in ("ok", "ok-after-retry", "degraded-to-serial")

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def label(self) -> str:
        """Compact rendering for tables: ``ok``, ``ok-after-retry(2)``."""
        if self.retries:
            return f"{self.status}({self.attempts})"
        return self.status


@dataclass
class RunnerStats:
    """What one :class:`~repro.runner.engine.ExperimentRunner.run` cost.

    ``cell_times`` maps ``(platform, category)`` to the wall time of the
    cell's execution *inside its worker*; ``wall_time_s`` is the caller's
    end-to-end wall time; the gap between ``busy_time_s`` spread over
    ``jobs`` workers and the elapsed wall time is ``worker_utilisation``.
    ``outcomes`` carries one :class:`CellOutcome` per requested cell —
    including the failed ones, which have no ``cell_times`` entry.
    """

    jobs: int = 1
    mode: str = "serial"
    cache_hits: int = 0
    cache_misses: int = 0
    corrupt_entries: int = 0
    wall_time_s: float = 0.0
    cell_times: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Simulated instructions retired per executed cell (all cores).
    cell_instrets: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Structured per-cell outcome (ok / retried / timed-out / failed ...).
    outcomes: dict[tuple[str, str], CellOutcome] = field(default_factory=dict)
    #: Queue-to-outcome duration per cell as seen by the caller — unlike
    #: ``cell_times`` this includes queueing, retries and backoff sleeps.
    cell_spans: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Worker pools torn down and rebuilt (hang or crash recovery).
    pool_rebuilds: int = 0

    @property
    def cells_total(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cells_executed(self) -> int:
        return len(self.cell_times)

    @property
    def cells_failed(self) -> int:
        return sum(1 for o in self.outcomes.values() if not o.ok)

    @property
    def cells_retried(self) -> int:
        return sum(1 for o in self.outcomes.values()
                   if o.ok and o.retries > 0)

    @property
    def retries_total(self) -> int:
        return sum(o.retries for o in self.outcomes.values())

    @property
    def busy_time_s(self) -> float:
        return sum(self.cell_times.values())

    @property
    def worker_utilisation(self) -> float:
        """Fraction of available worker-seconds spent inside cells."""
        if self.wall_time_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(self.busy_time_s / (self.wall_time_s * self.jobs), 1.0)

    @property
    def hit_rate(self) -> float:
        if self.cells_total == 0:
            return 0.0
        return self.cache_hits / self.cells_total

    @property
    def instructions_total(self) -> int:
        return sum(self.cell_instrets.values())

    def failed_cells(self) -> list[tuple[str, str, CellOutcome]]:
        """The cells without a trustworthy payload, with their outcomes."""
        return [(platform, category, outcome)
                for (platform, category), outcome in sorted(
                    self.outcomes.items())
                if not outcome.ok]

    def slowest_cells(self, count: int = 3) -> list[tuple[str, str, float]]:
        ranked = sorted(self.cell_times.items(), key=lambda kv: -kv[1])
        return [(platform, category, seconds)
                for (platform, category), seconds in ranked[:count]]

    def summary(self) -> str:
        """One human-readable block for CLI / benchmark output."""
        lines = [
            f"runner: mode={self.mode} jobs={self.jobs} "
            f"wall={self.wall_time_s:.2f}s "
            f"utilisation={self.worker_utilisation:.0%}",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
            + (f" ({self.corrupt_entries} corrupt discarded)"
               if self.corrupt_entries else ""),
        ]
        if self.retries_total or self.cells_failed or self.pool_rebuilds:
            lines.append(
                f"faults: {self.cells_failed} cells failed, "
                f"{self.cells_retried} recovered by retry "
                f"({self.retries_total} retries), "
                f"{self.pool_rebuilds} pool rebuilds")
        for platform, category, outcome in self.failed_cells():
            lines.append(f"  not evaluated: {platform}/{category} "
                         f"[{outcome.label()}] {outcome.error or ''}".rstrip())
        if self.cell_times:
            slow = ", ".join(f"{p}/{c} {t:.2f}s"
                             for p, c, t in self.slowest_cells())
            lines.append(f"slowest cells: {slow}")
        return "\n".join(lines)

    def profile(self) -> str:
        """Per-cell profile table: wall time, span, throughput, outcome.

        Executed cells rank by wall time; cells that never produced a
        payload (timed out / failed) follow, so a flaky or dead cell is
        visible at a glance rather than silently absent.  ``wall`` is the
        in-worker execution time, ``span`` the caller-side queue-to-
        outcome duration (queueing + retries + backoff); a large gap
        between the two is the runner's overhead, not the engine's.
        Spans overlap (every cell is queued when the run starts), so the
        total row's ``span`` is the run's wall time, not their sum.  The
        throughput column is the engine-speed figure the
        micro-benchmarks track (``make bench``); a cell that retires no
        ISA instruction (a cipher or key-recovery cell) shows ``-``
        there, not a rate of zero.  The cell column is sized to the
        longest cell name so wide matrices keep every column aligned.
        """
        if not self.cell_times and not self.cells_failed:
            return "profile: no cells executed (all served from cache)"
        cells = set(self.cell_times) | set(self.outcomes)
        names = [f"{platform}/{category}" for platform, category in cells]
        width = max([38] + [len(name) for name in names])

        def span_col(cell: tuple[str, str]) -> str:
            seconds = self.cell_spans.get(cell)
            if seconds is None:
                return f"{'-':>9}"
            return f"{seconds * 1e3:>7.1f}ms"

        def rate_col(instret: int, seconds: float) -> str:
            if instret <= 0 or seconds <= 0:
                return f"{'-':>12}"
            return f"{instret / seconds:>12,.0f}"

        header = (f"{'cell':<{width}} {'wall':>9} {'span':>9} "
                  f"{'instret':>10} {'instr/s':>12}  outcome")
        lines = ["profile (executed cells, slowest first):", header]
        ranked = sorted(self.cell_times.items(), key=lambda kv: -kv[1])
        for (platform, category), seconds in ranked:
            instret = self.cell_instrets.get((platform, category), 0)
            outcome = self.outcomes.get((platform, category))
            lines.append(f"{platform + '/' + category:<{width}} "
                         f"{seconds * 1e3:>7.1f}ms "
                         f"{span_col((platform, category))} "
                         f"{instret:>10} {rate_col(instret, seconds)}  "
                         f"{outcome.label() if outcome else 'ok'}")
        for platform, category, outcome in self.failed_cells():
            lines.append(f"{platform + '/' + category:<{width}} "
                         f"{'-':>9} {span_col((platform, category))} "
                         f"{'-':>10} {'-':>12}  "
                         f"{outcome.label()}")
        lines.append(f"{'total':<{width}} {self.busy_time_s * 1e3:>7.1f}ms "
                     f"{self.wall_time_s * 1e3:>7.1f}ms "
                     f"{self.instructions_total:>10} "
                     f"{rate_col(self.instructions_total, self.busy_time_s)}")
        return "\n".join(lines)
