"""The experiment engine: deterministic cells, supervised and memoised.

A :class:`CellSpec` names one unit of measurement — a ``(platform,
category)`` attack cell or a platform's reference workload — by plain
picklable values only.  :func:`execute_spec` turns a spec into a payload
dict and is a *pure function* of the spec: the SoC is rebuilt from the
platform's registered factory and the RNG is derived from the spec's
coordinates, so any process computes the same payload.  That purity is
what makes both layers above it sound:

* :class:`ExperimentRunner` fans pending specs out over a supervised
  ``ProcessPoolExecutor`` — per-cell timeouts, hung-worker replacement,
  ``BrokenProcessPool`` recovery, capped deterministic-jitter retries —
  and memoises payloads in a :class:`~repro.runner.cache.ResultCache`
  keyed by :func:`cache_key_for`;
* every run's cost and per-cell
  :class:`~repro.runner.stats.CellOutcome` are recorded in a fresh
  :class:`~repro.runner.stats.RunnerStats` exposed as ``runner.stats``.

Payloads carry a content digest (:func:`payload_fingerprint`, stored
under :data:`INTEGRITY_KEY`) over their deterministic fields, so a
corrupted worker return or torn cache entry is *detected* rather than
trusted — the property the chaos suite (``make chaos``) attacks.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import (
    CellExecutionError,
    CellTimeoutError,
    PayloadCorruptionError,
)
from repro.obs.observer import (
    CELL_METRICS_KEY,
    NULL_OBSERVER,
    SPANS_KEY,
    RunObserver,
)
from repro.runner.cache import ResultCache
from repro.runner.chaos import ChaosConfig, chaos_execute_spec
from repro.runner.retry import RetryPolicy
from repro.runner.seeding import derive_cell_seed
from repro.runner.stats import CellOutcome, RunnerStats

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Pseudo-category for the per-platform reference-workload measurement.
WORKLOAD_CATEGORY = "workload"

#: Pseudo-category for Spectre-scanner cells (repro.spec): ``platform``
#: carries a scan-config name instead of a PlatformClass value.
SCAN_CATEGORY = "spec-scan"

#: Default per-cell wall-clock budget before a worker counts as hung.
DEFAULT_TIMEOUT_S = 120.0

#: Payload key holding the integrity digest over deterministic fields.
INTEGRITY_KEY = "payload_sha256"

#: Payload fields that legitimately vary between identical reruns and are
#: therefore excluded from the integrity digest.  The telemetry keys are
#: excluded so an *observed* run computes the same fingerprint as an
#: unobserved one — observation must never invalidate (or fork) the
#: cache, and the chaos suite's byte-identity guarantees must hold with
#: tracing on.
VOLATILE_KEYS = frozenset({"cell_wall_time_s", SPANS_KEY,
                           CELL_METRICS_KEY})


@dataclass(frozen=True)
class CellSpec:
    """Complete, picklable description of one cell's inputs.

    ``platform`` and ``category`` are enum *values* (strings), not enum
    members, so the spec pickles compactly and hashes stably; ``knobs``
    is the canonical tuple form from ``MatrixKnobs.as_key()``.
    """

    seed: int
    platform: str
    category: str
    knobs: tuple[tuple[str, int], ...] = ()


def cache_key_for(spec: CellSpec, version: str | None = None) -> str:
    """Content address of a cell: SHA-256 over the full input description.

    The package version participates in the key, so upgrading the
    simulator implicitly invalidates every cached measurement.
    """
    if version is None:
        import repro
        version = repro.__version__
    material = json.dumps({
        "version": version,
        "seed": spec.seed,
        "platform": spec.platform,
        "category": spec.category,
        "knobs": [list(pair) for pair in spec.knobs],
    }, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def payload_fingerprint(payload: dict) -> str:
    """SHA-256 over the payload's deterministic content.

    Volatile fields (per-run wall times) and the digest itself are
    excluded, so the fingerprint is identical for any two honest
    computations of the same spec — the "byte-identical payload"
    property the robustness tests assert.  ``json.dumps`` canonicalises
    (tuples and lists serialise identically, keys sort), so the value
    survives both the pickle and the on-disk JSON boundary.
    """
    stable = {k: v for k, v in payload.items()
              if k not in VOLATILE_KEYS and k != INTEGRITY_KEY}
    return hashlib.sha256(
        json.dumps(stable, sort_keys=True).encode("utf-8")).hexdigest()


def payload_intact(payload: object) -> bool:
    """Whether a payload carries a matching integrity digest."""
    if not isinstance(payload, dict):
        return False
    digest = payload.get(INTEGRITY_KEY)
    if not isinstance(digest, str):
        return False
    try:
        return digest == payload_fingerprint(payload)
    except (TypeError, ValueError):
        return False


def run_cell(spec: CellSpec, soc) -> dict:
    """The cell body: one attack suite or the reference workload on an
    already-built ``soc``.

    Returns the measurement part of the payload (``kind`` plus
    ``attacks`` or ``workload``).  :func:`execute_spec` wraps it with
    SoC construction, telemetry and the integrity digest;
    :class:`~repro.core.matrix.EvaluationMatrix` calls it directly for
    profiles whose SoC factory is not registered, so both paths seed
    and dispatch identically.  The suites run the batched attack
    kernels, which are bit-identical to the scalar reference attacks.
    """
    from repro.arch.null import NullArchitecture
    from repro.attacks.base import AttackCategory
    from repro.attacks.suites import SUITES, MatrixKnobs
    from repro.common import PlatformClass
    from repro.core.platforms import reference_workload
    from repro.crypto.rng import XorShiftRNG
    from repro.runner.serialize import attack_result_to_dict, workload_to_dict

    if spec.category == WORKLOAD_CATEGORY:
        return {"kind": WORKLOAD_CATEGORY,
                "workload": workload_to_dict(reference_workload(soc))}
    platform = PlatformClass(spec.platform)
    arch = NullArchitecture(soc, platform)
    rng = XorShiftRNG(derive_cell_seed(spec.seed, spec.platform,
                                       spec.category))
    suite = SUITES[AttackCategory(spec.category)]
    results = suite(arch, rng, MatrixKnobs.from_key(spec.knobs))
    return {"kind": "attacks",
            "attacks": [attack_result_to_dict(r) for r in results]}


def execute_spec(spec: CellSpec, collect: bool = False,
                 memo: bool = False) -> dict:
    """Compute one cell; importable by reference from worker processes.

    ``collect`` turns on in-cell telemetry: a per-cell
    :class:`~repro.obs.tracer.Tracer` (IDs derived from the cell seed)
    is activated around the suite so attack-phase spans are recorded, a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached to every
    core (``Core.run`` flushes instructions/cycles/energy into it) and
    fed the cache-hierarchy hit rates, and both land in the payload
    under volatile keys — the payload fingerprint is unchanged, so
    observed and unobserved runs share cache entries.

    ``memo`` is the scan-cell strategy knob: scan cells route through
    the memoized exploration engine (:mod:`repro.spec.memo`), which
    dedups the fork frontier and replays window-parametric excursion
    recordings across the grid.  Rows and ``cell_instret`` are
    byte-identical to the reference path (the explore-diff harness and
    differential suite prove it), so memoized and reference scan cells
    share cache entries.

    Imports are deferred so that importing :mod:`repro.runner` stays
    cheap and free of circular imports with :mod:`repro.core`.
    """
    if spec.category == SCAN_CATEGORY:
        # Spectre-scanner cells: spec.platform names a scan config, not a
        # PlatformClass, so they branch off before platform resolution.
        # The sweep is pure analysis (no RNG), so the payload inherits the
        # full integrity/caching machinery with no extra seeding.
        from repro.spec.scanner import execute_scan_cell
        start = time.perf_counter()
        payload = execute_scan_cell(spec, memo=True) if memo \
            else execute_scan_cell(spec)
        payload["cell_wall_time_s"] = time.perf_counter() - start
        payload[INTEGRITY_KEY] = payload_fingerprint(payload)
        return payload

    import repro.obs as obs
    from repro.common import PlatformClass
    from repro.cpu.soc import soc_factory_for

    coords = f"{spec.platform}/{spec.category}"
    tracer = obs.Tracer(scope=coords, seed=derive_cell_seed(
        spec.seed, spec.platform, spec.category)) if collect else None
    registry = obs.MetricsRegistry() if collect else None

    start = time.perf_counter()
    soc = soc_factory_for(PlatformClass(spec.platform))()
    if registry is not None:
        for core in soc.cores:
            core.metrics = registry
    with obs.activate(tracer) if collect else nullcontext():
        with obs.span(f"cell:{coords}", cat="cell", seed=spec.seed):
            payload = run_cell(spec, soc)
    payload["cell_instret"] = sum(core.instret for core in soc.cores)
    payload["cell_wall_time_s"] = time.perf_counter() - start
    if collect:
        for core in soc.cores:
            core.flush_metrics()
        soc.hierarchy.metrics_into(registry)
        payload[SPANS_KEY] = tracer.export_records()
        payload[CELL_METRICS_KEY] = registry.to_json()
    payload[INTEGRITY_KEY] = payload_fingerprint(payload)
    return payload


@dataclass(frozen=True)
class CellTask:
    """One execution attempt of one cell, as shipped to a worker.

    ``collect`` asks the worker to gather in-cell telemetry (span
    records, core/cache metric snapshots) into the payload's volatile
    keys; it is only set when the runner's observer wants them.
    ``memo`` picks the memoized scan explorer, bit-identical to the
    reference explorer, so it changes nothing but speed.
    """

    spec: CellSpec
    attempt: int = 0
    chaos: ChaosConfig | None = None
    collect: bool = False
    memo: bool = False


def execute_task(task: CellTask) -> tuple[str, object]:
    """Worker entry point: compute the task's cell, never raise.

    Returns a tagged pair — ``("ok", payload)`` or ``("err",
    description)`` — so a cell's own exception travels back as a
    *result* and can never be conflated with pool-infrastructure
    failure (which surfaces as the future's exception instead).
    """
    try:
        # Strategy flags ride as keywords only when set: the bare
        # ``execute_spec(spec)`` call keeps the exact historical shape
        # (tests monkeypatch one-arg stand-ins).
        flags = {}
        if task.collect:
            flags["collect"] = True
        if task.memo:
            flags["memo"] = True
        if task.chaos is not None:
            payload = chaos_execute_spec(task.spec, task.attempt,
                                         task.chaos, in_worker=True,
                                         **flags)
        else:
            payload = execute_spec(task.spec, **flags)
        return ("ok", payload)
    except BaseException as exc:  # noqa: BLE001 — the tag is the contract
        return ("err", f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class _Wrapped:
    """Picklable wrapper making worker exceptions travel as results.

    Used by :func:`parallel_map`: without it, an ``OSError`` raised *by
    the mapped function* inside a worker is indistinguishable from pool
    infrastructure dying, and would wrongly trigger the serial rerun.
    """

    fn: Callable

    def __call__(self, item):
        try:
            return ("ok", self.fn(item))
        except Exception as exc:  # noqa: BLE001 — re-raised by the parent
            return ("err", exc)


def parallel_map(fn: Callable, items: Iterable,
                 jobs: int = 1) -> tuple[list, str]:
    """``[fn(x) for x in items]``, fanned over processes when asked.

    Returns ``(results, mode)`` with ``mode`` one of ``"serial"``,
    ``"process-pool"`` or ``"serial-fallback"``.  Only pool
    *infrastructure* failures (no fork permitted, broken pool, pickling
    refusal) trigger the fallback; an exception raised by ``fn`` itself
    propagates — even from inside a worker, thanks to the tagged-result
    wrapping — because a failing experiment must fail loudly, not
    quietly rerun.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from pickle import PicklingError

        outcomes = None
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(items))) as pool:
                outcomes = list(pool.map(_Wrapped(fn), items))
        except (OSError, ImportError, BrokenProcessPool, PicklingError):
            pass
        if outcomes is not None:
            results = []
            for tag, value in outcomes:
                if tag == "err":
                    raise value
                results.append(value)
            return results, "process-pool"
    mode = "serial-fallback" if jobs > 1 and len(items) > 1 else "serial"
    return [fn(item) for item in items], mode


class _CellFailure(Exception):
    """Internal: one attempt's failure, normalised to (cause, detail)."""

    def __init__(self, cause: str, detail: str) -> None:
        super().__init__(detail)
        self.cause = cause
        self.detail = detail


class ExperimentRunner:
    """Supervised, cache-aware, optionally parallel executor for specs.

    ``jobs`` is the worker-process count (1 = in-process serial);
    ``cache`` is a :class:`ResultCache` or ``None`` to disable
    memoisation; ``timeout_s`` bounds one attempt's wall time inside a
    worker (``None`` disables hang detection); ``retry`` caps how often
    a failing cell is re-run, with deterministic-jitter backoff;
    ``chaos`` injects harness faults (tests only, or ``--chaos``);
    ``fail_fast`` restores the historical abort-on-first-error
    behaviour instead of degrading failed cells to structured outcomes;
    ``memo`` runs the scan cells through the memoized exploration engine
    (bit-identical payloads, faster wall time).

    Each :meth:`run` replaces :attr:`stats` with that run's
    measurements, including one
    :class:`~repro.runner.stats.CellOutcome` per requested cell.
    """

    def __init__(self, jobs: int = 1,
                 cache: ResultCache | None = None,
                 timeout_s: float | None = DEFAULT_TIMEOUT_S,
                 retry: RetryPolicy | None = None,
                 chaos: ChaosConfig | None = None,
                 fail_fast: bool = False,
                 observer: RunObserver | None = None,
                 memo: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout_s = timeout_s if timeout_s and timeout_s > 0 else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.fail_fast = fail_fast
        self.memo = bool(memo)
        #: Lifecycle hook surface; the default no-op observer keeps the
        #: fast path at its unobserved cost (one call per cell edge).
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._collect = bool(getattr(self.observer, "wants_cell_spans",
                                     False))
        if self.cache is not None:
            self.cache.on_event = self._cache_event
        self.stats = RunnerStats(jobs=self.jobs)
        #: Per-spec queue-to-outcome start times for the current run.
        self._span_start: dict[CellSpec, float] = {}

    def _cache_event(self, event: str, key: str) -> None:
        """Forward cache-internal events (quarantines) to the observer."""
        if event == "quarantine":
            self.observer.on_cache_quarantine(key)

    # -- public entry ----------------------------------------------------------

    def run(self, specs: Sequence[CellSpec]) -> dict[CellSpec, dict]:
        """Execute all ``specs``; return payloads for the cells that
        produced one.  Cells whose every attempt failed are *absent*
        from the result and carry a non-``ok``
        :class:`~repro.runner.stats.CellOutcome` in :attr:`stats`
        (unless ``fail_fast``, which re-raises instead)."""
        specs = list(specs)
        stats = RunnerStats(jobs=self.jobs)
        start = time.perf_counter()
        corrupt_before = (self.cache.corrupt_discarded
                          if self.cache else 0)
        observer = self.observer
        observer.on_run_start(specs)

        results: dict[CellSpec, dict] = {}
        pending: list[CellSpec] = []
        self._span_start = {}
        for spec in specs:
            payload = self._cached_payload(spec)
            if payload is not None:
                stats.cache_hits += 1
                results[spec] = payload
                stats.outcomes[(spec.platform, spec.category)] = \
                    CellOutcome(status="ok", attempts=0)
                observer.on_cache_hit(spec)
                observer.on_cell_end(spec, "ok", 0, payload)
            else:
                pending.append(spec)
                observer.on_cache_miss(spec)
        stats.cache_misses = len(pending)
        now = time.perf_counter()
        for spec in pending:
            self._span_start[spec] = now

        try:
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_supervised(pending, results, stats)
                else:
                    stats.mode = "serial"
                    self._run_serial(pending, results, stats,
                                     degraded=False)
        finally:
            if self.cache is not None:
                stats.corrupt_entries = \
                    self.cache.corrupt_discarded - corrupt_before
            stats.wall_time_s = time.perf_counter() - start
            self.stats = stats
            observer.on_run_end(stats)
        return results

    # -- cache -----------------------------------------------------------------

    def _cached_payload(self, spec: CellSpec) -> dict | None:
        """A trustworthy cached payload, or ``None``.

        The integrity digest is re-verified here even when the cache has
        no validator of its own, so a tampered entry that still parses
        as JSON is quarantined rather than believed.
        """
        if self.cache is None:
            return None
        key = cache_key_for(spec)
        payload = self.cache.get(key)
        if payload is None:
            return None
        if not payload_intact(payload):
            self.cache.quarantine(key)
            return None
        return payload

    def _cell_span_s(self, spec: CellSpec) -> float:
        """Queue-to-outcome duration of a cell in this run (seconds)."""
        started = self._span_start.get(spec)
        return time.perf_counter() - started if started is not None else 0.0

    def _record_success(self, spec: CellSpec, attempt: int, payload: dict,
                        results: dict, stats: RunnerStats,
                        degraded: bool) -> None:
        results[spec] = payload
        coords = (spec.platform, spec.category)
        stats.cell_times[coords] = payload.get("cell_wall_time_s", 0.0)
        stats.cell_instrets[coords] = payload.get("cell_instret", 0)
        stats.cell_spans[coords] = self._cell_span_s(spec)
        if degraded:
            status = "degraded-to-serial"
        else:
            status = "ok" if attempt == 0 else "ok-after-retry"
        stats.outcomes[coords] = CellOutcome(status=status,
                                             attempts=attempt + 1)
        self.observer.on_cell_end(spec, status, attempt + 1, payload)
        if self.cache is not None:
            self.cache.put(cache_key_for(spec), payload)

    def _record_failure(self, spec: CellSpec, attempts: int, cause: str,
                        detail: str, stats: RunnerStats) -> None:
        if self.fail_fast:
            if cause == "timed-out":
                raise CellTimeoutError(spec.platform, spec.category,
                                       attempts, self.timeout_s or 0.0)
            if cause == "corrupt-payload":
                raise PayloadCorruptionError(
                    f"cell {spec.platform}/{spec.category}: {detail}")
            raise CellExecutionError(spec.platform, spec.category,
                                     attempts, cause, detail)
        status = "timed-out" if cause == "timed-out" else "failed"
        coords = (spec.platform, spec.category)
        stats.cell_spans[coords] = self._cell_span_s(spec)
        stats.outcomes[coords] = CellOutcome(
            status=status, attempts=attempts,
            error=f"{cause}: {detail}" if detail else cause)
        self.observer.on_cell_end(spec, status, attempts, None)

    # -- serial path -----------------------------------------------------------

    def _attempt_in_process(self, spec: CellSpec, attempt: int) -> dict:
        """One in-parent-process attempt; raises :class:`_CellFailure`."""
        self.observer.on_cell_start(spec, attempt)
        try:
            # Keyword flags only when set, preserving the historical
            # bare ``execute_spec(spec)`` shape for monkeypatched
            # one-arg stand-ins (see ``execute_task``).
            flags = {}
            if self._collect:
                flags["collect"] = True
            if self.memo:
                flags["memo"] = True
            if self.chaos is not None:
                payload = chaos_execute_spec(spec, attempt, self.chaos,
                                             in_worker=False, **flags)
            else:
                payload = execute_spec(spec, **flags)
        except Exception as exc:
            if self.fail_fast:
                raise  # the historical behaviour: the cell's error, verbatim
            raise _CellFailure("raised",
                               f"{type(exc).__name__}: {exc}") from exc
        if not payload_intact(payload):
            raise _CellFailure("corrupt-payload",
                               "integrity digest mismatch")
        return payload

    def _run_serial(self, pending: Sequence[CellSpec], results: dict,
                    stats: RunnerStats, degraded: bool) -> None:
        for spec in pending:
            failure: _CellFailure | None = None
            for attempt in range(self.retry.max_attempts):
                if attempt:
                    delay = self.retry.delay_s(
                        spec.seed, spec.platform, spec.category, attempt)
                    self.observer.on_retry(spec, attempt,
                                           failure.cause if failure
                                           else "unknown", delay)
                    time.sleep(delay)
                try:
                    payload = self._attempt_in_process(spec, attempt)
                except _CellFailure as exc:
                    failure = exc
                    if self.fail_fast:
                        break
                    continue
                self._record_success(spec, attempt, payload, results,
                                     stats, degraded)
                failure = None
                break
            if failure is not None:
                self._record_failure(spec, self.retry.max_attempts,
                                     failure.cause, failure.detail, stats)

    # -- supervised pool path --------------------------------------------------

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Forcibly retire a pool whose workers can no longer be trusted
        to finish (hung, or already dead)."""
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_supervised(self, pending: Sequence[CellSpec], results: dict,
                        stats: RunnerStats) -> None:
        """Futures-based supervisor: submit cells individually, watch
        deadlines, replace broken/hung pools, requeue and retry.

        Recovery invariants (the chaos suite's contract):

        * a worker crash (``BrokenProcessPool``) charges an attempt only
          to the tasks that were *observed running*; queued tasks are
          requeued unchanged on a fresh pool;
        * a task overdue past ``timeout_s`` (measured from when it was
          first observed running, so pool queueing doesn't count)
          charges an attempt to itself; innocent co-resident tasks are
          requeued unchanged;
        * attempts per cell are capped by the retry policy, which bounds
          pool rebuilds; past a hard rebuild budget the remaining cells
          degrade to in-process serial execution (with process-lethal
          chaos modes disarmed) rather than looping forever.

        The pool machinery is imported here, where a pool is built: the
        default ``jobs=1`` runner never loads it.
        """
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )
        from concurrent.futures.process import BrokenProcessPool
        from pickle import PicklingError

        max_workers = min(self.jobs, len(pending))
        #: (spec, attempt, not_before): ready-to-submit work items.
        queue: deque[tuple[CellSpec, int, float]] = deque(
            (spec, 0, 0.0) for spec in pending)
        rebuild_budget = len(pending) * self.retry.max_attempts + 4

        pool: ProcessPoolExecutor | None = None
        futures: dict = {}           # future -> (spec, attempt)
        deadlines: dict = {}         # future -> monotonic deadline
        observed_running: set = set()
        stats.mode = "process-pool"

        def teardown(kill: bool) -> None:
            nonlocal pool
            if pool is not None:
                if kill:
                    self._kill_pool(pool)
                else:
                    pool.shutdown(wait=True)
                pool = None
            futures.clear()
            deadlines.clear()
            observed_running.clear()

        def degrade_to_serial() -> None:
            """Abandon pooling: finish every unfinished cell in-process."""
            remaining = [(spec, attempt)
                         for _, (spec, attempt) in futures.items()]
            remaining += [(spec, attempt) for spec, attempt, _ in queue]
            queue.clear()
            teardown(kill=True)
            stats.mode = "serial-fallback"
            self._run_serial([spec for spec, _ in remaining], results,
                             stats, degraded=True)

        def retry_or_fail(spec: CellSpec, attempt: int, cause: str,
                          detail: str) -> None:
            if self.fail_fast:
                teardown(kill=True)
                self._record_failure(spec, attempt + 1, cause, detail,
                                     stats)  # raises
            if attempt + 1 < self.retry.max_attempts:
                delay = self.retry.delay_s(spec.seed, spec.platform,
                                           spec.category, attempt + 1)
                self.observer.on_retry(spec, attempt + 1, cause, delay)
                queue.append((spec, attempt + 1,
                              time.monotonic() + delay))
            else:
                self._record_failure(spec, attempt + 1, cause, detail,
                                     stats)

        try:
            while queue or futures:
                now = time.monotonic()

                # (Re)build the pool; an environment that cannot pool at
                # all (no fork, no pickling) degrades every cell.
                if pool is None and (queue or futures):
                    if stats.pool_rebuilds > rebuild_budget:
                        degrade_to_serial()
                        return
                    try:
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                    except (OSError, ImportError):
                        degrade_to_serial()
                        return

                # Submit everything whose backoff has elapsed.
                deferred: list[tuple[CellSpec, int, float]] = []
                submit_failed = False
                while queue:
                    spec, attempt, not_before = queue.popleft()
                    if not_before > now:
                        deferred.append((spec, attempt, not_before))
                        continue
                    task = CellTask(spec=spec, attempt=attempt,
                                    chaos=self.chaos,
                                    collect=self._collect,
                                    memo=self.memo)
                    try:
                        future = pool.submit(execute_task, task)
                    except (RuntimeError, BrokenProcessPool, OSError,
                            PicklingError):
                        # Pool died between loop iterations; requeue and
                        # let the broken-pool path below rebuild it.
                        deferred.append((spec, attempt, not_before))
                        submit_failed = True
                        break
                    futures[future] = (spec, attempt)
                    self.observer.on_cell_start(spec, attempt)
                queue.extend(deferred)
                self.observer.on_queue_depth(len(queue), len(futures))

                if submit_failed and not futures:
                    stats.pool_rebuilds += 1
                    self.observer.on_pool_rebuild("submit-failed")
                    teardown(kill=True)
                    continue

                if not futures:
                    # Everything is backing off; sleep to the nearest
                    # not_before instead of spinning.
                    wake = min(nb for _, _, nb in queue)
                    time.sleep(max(0.0, min(wake - now, 0.25)))
                    continue

                done, not_done = wait(list(futures), timeout=0.05,
                                      return_when=FIRST_COMPLETED)

                # Arm deadlines when a task is first seen *running* —
                # time spent queued behind other cells doesn't count.
                now = time.monotonic()
                for future in not_done:
                    if future.running():
                        observed_running.add(future)
                        if (self.timeout_s is not None
                                and future not in deadlines):
                            deadlines[future] = now + self.timeout_s

                broken: list[tuple[object, CellSpec, int]] = []
                for future in done:
                    spec, attempt = futures.pop(future)
                    deadlines.pop(future, None)
                    try:
                        tag, value = future.result()
                    except Exception:  # pool infra: broken, cancelled, pickle
                        broken.append((future, spec, attempt))
                        continue
                    observed_running.discard(future)
                    if tag == "ok" and payload_intact(value):
                        self._record_success(spec, attempt, value,
                                             results, stats,
                                             degraded=False)
                    elif tag == "ok":
                        retry_or_fail(spec, attempt, "corrupt-payload",
                                      "integrity digest mismatch")
                    else:
                        retry_or_fail(spec, attempt, "raised", str(value))

                if broken:
                    # The pool is gone: every submitted-but-unprocessed
                    # future is equally dead.  Charge an attempt to the
                    # tasks that were observed running (one of them took
                    # the worker down); requeue the rest unchanged.
                    stats.pool_rebuilds += 1
                    self.observer.on_pool_rebuild("worker-crash")
                    broken += [(future, *futures[future])
                               for future in list(futures)]
                    was_running = {future for future, _, _ in broken
                                   if future in observed_running}
                    if not was_running:  # crash before any poll saw it
                        was_running = {future for future, _, _ in broken}
                    for future, spec, attempt in broken:
                        if future in was_running:
                            retry_or_fail(spec, attempt, "worker-crash",
                                          "worker process died "
                                          "(BrokenProcessPool)")
                        else:
                            queue.append((spec, attempt, 0.0))
                    teardown(kill=True)
                    continue

                # Hung-worker detection: a running task past its
                # deadline forfeits this attempt and takes the pool (the
                # only way to reclaim its worker) down with it.
                overdue = [future for future, deadline in deadlines.items()
                           if now > deadline and future in futures]
                if overdue:
                    stats.pool_rebuilds += 1
                    self.observer.on_pool_rebuild("hung-worker")
                    for future in overdue:
                        spec, attempt = futures.pop(future)
                        retry_or_fail(
                            spec, attempt, "timed-out",
                            f"exceeded {self.timeout_s:.1f}s per-cell "
                            f"timeout; worker replaced")
                    for future in list(futures):
                        spec, attempt = futures.pop(future)
                        queue.append((spec, attempt, 0.0))
                    teardown(kill=True)
        finally:
            teardown(kill=bool(futures))
