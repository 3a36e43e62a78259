"""Tier-1 suite for the evaluation service (``repro.service``).

Everything here runs against real directories and real leases — the
protocol *is* the filesystem, so there is nothing worth mocking — but
on deliberately tiny jobs (one platform, two categories) so the suite
stays fast enough for tier 1.  The expensive end: whole-host chaos,
subprocess fleets, SIGKILL — lives in ``test_service_chaos.py``.

Covered contracts:

* job identity: content-addressed, idempotent, strategy-flag-blind;
* queue crash-safety: atomic submission, torn-job quarantine, terminal
  failure records;
* lease algebra: ``O_EXCL`` exclusivity, heartbeat, TTL expiry, torn
  and clock-skewed leases, single-winner reaping, and the satellite
  race test — two contenders on an *expired* lease yield exactly one
  owner, with the loser backing off on the deterministic retry jitter;
* worker loop: drains a job, leaves no lease behind, publishes
  payloads byte-identical to a direct runner's; cache hits on rerun;
* graceful drain on SIGTERM: the in-flight cell finishes, every lease
  is released, and the remaining cells are immediately re-claimable;
* coordinator: status/wait/manifest/fingerprints re-derived from
  shared state, progress JSONL + metrics export, cold resume from a
  manifest without recomputing completed cells.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runner import (
    CellSpec,
    ExperimentRunner,
    ResultCache,
    RetryPolicy,
    WORKLOAD_CATEGORY,
    cache_key_for,
    payload_intact,
)
from repro.service import (
    Coordinator,
    JobQueue,
    JobSpec,
    Lease,
    LeaseLostError,
    ServiceWorker,
    lease_state,
    plant_skewed_lease,
    plant_stale_lease,
    plant_torn_lease,
    read_lease,
    reap_lease,
    tear_job_file,
    try_acquire,
)

#: Fast retry schedule so contention backoffs cost milliseconds.
RETRY = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05)


def small_job(categories: tuple[str, ...] = ("remote", WORKLOAD_CATEGORY),
              platforms: tuple[str, ...] = ("server-desktop",)) -> JobSpec:
    """A two-cell slice of the quick matrix: fast, fully real."""
    return JobSpec.matrix(quick=True).scoped(platforms=platforms,
                                             categories=categories)


def make_worker(queue: JobQueue, cache: ResultCache, **kw) -> ServiceWorker:
    kw.setdefault("ttl_s", 5.0)
    kw.setdefault("poll_s", 0.01)
    kw.setdefault("retry", RETRY)
    return ServiceWorker(queue, cache=cache, **kw)


@pytest.fixture()
def queue(tmp_path: Path) -> JobQueue:
    return JobQueue(tmp_path / "queue")


@pytest.fixture()
def cache(tmp_path: Path) -> ResultCache:
    return ResultCache(tmp_path / "cells")


@pytest.fixture(scope="module")
def direct_payloads() -> dict[CellSpec, dict]:
    """Fault-free oracle payloads for the small job, computed once."""
    runner = ExperimentRunner()
    return runner.run(small_job().cells())


# ---------------------------------------------------------------------------
# JobSpec identity and (de)serialisation
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_job_id_is_content_addressed_and_strategy_blind(self):
        # Job files written before the strategy flags were removed still
        # carry them; they are ignored and do not change the job id.
        a = small_job()
        b = JobSpec.from_dict({**a.to_dict(), "ensemble": True,
                               "batch": True})
        assert a.job_id == b.job_id
        assert a.job_id != small_job(platforms=("mobile",)).job_id

    def test_roundtrip_through_dict(self):
        job = small_job()
        clone = JobSpec.from_dict(job.to_dict())
        assert clone == job
        assert clone.job_id == job.job_id

    def test_from_dict_rejects_wrong_schema(self):
        data = small_job().to_dict()
        data["schema"] = "not-a-job/9"
        with pytest.raises(ValueError, match="not a repro-service-job"):
            JobSpec.from_dict(data)

    def test_cells_expand_platform_major(self):
        job = small_job(platforms=("server-desktop", "mobile"))
        cells = job.cells()
        assert len(cells) == 4
        assert [c.platform for c in cells] == ["server-desktop"] * 2 + \
            ["mobile"] * 2
        assert all(c.seed == job.seed and c.knobs == job.knobs
                   for c in cells)

    def test_matrix_quick_is_the_fifteen_cell_grid(self):
        assert len(JobSpec.matrix(quick=True).cells()) == 15

    def test_unknown_knob_rejected_by_name(self):
        with pytest.raises(ValueError, match="bogus_knob"):
            JobSpec(knobs=(("bogus_knob", 1),))
        data = small_job().to_dict()
        data["knobs"].append(["bogus_knob", 1])
        with pytest.raises(ValueError, match="bogus_knob"):
            JobSpec.from_dict(data)


# ---------------------------------------------------------------------------
# JobQueue: submission, quarantine, failure records
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_submit_is_idempotent(self, queue):
        job = small_job()
        assert queue.submit(job) == queue.submit(job) == job.job_id
        assert queue.job_ids() == [job.job_id]
        assert queue.load(job.job_id) == job
        assert not list(queue.jobs_dir.glob("*.tmp"))

    def test_torn_job_is_quarantined_not_trusted(self, queue):
        job = small_job()
        queue.submit(job)
        tear_job_file(queue, job.job_id)
        assert queue.job_ids() == []
        assert queue.load(job.job_id) is None
        assert queue.torn_jobs_quarantined >= 1
        assert list(queue.jobs_dir.glob("*.torn"))
        # A re-submission heals the queue.
        queue.submit(job)
        assert queue.job_ids() == [job.job_id]

    def test_job_file_with_retired_knobs_is_quarantined(self, queue, cache):
        # A job file as written by v1.9.0, whose knobs still sized the
        # removed kernel sweep: it must be quarantined on load, not
        # handed to a worker whose every cell would then fail.
        legacy = {
            "schema": "repro-service-job/1",
            "job_id": "job-b50a85e415f0b2f8",
            "seed": 8217,
            "knobs": [["fr_samples", 12], ["fr_values", 8],
                      ["rsa_bits", 64], ["secret_len", 4],
                      ["sweep_instances", 12], ["sweep_iters", 48],
                      ["timing_bits", 8], ["timing_samples", 600],
                      ["traces", 300]],
            "platforms": ["server-desktop"],
            "categories": ["remote", "workload"],
            "ensemble": False,
            "batch": False,
        }
        with pytest.raises(ValueError, match="sweep_instances"):
            JobSpec.from_dict(legacy)
        queue.jobs_dir.mkdir(parents=True)
        queue.job_path(legacy["job_id"]).write_text(json.dumps(legacy))
        assert queue.load(legacy["job_id"]) is None
        assert queue.job_ids() == []
        assert queue.torn_jobs_quarantined == 1
        assert list(queue.jobs_dir.glob("*.torn"))
        stats = make_worker(queue, cache).run_until_drained()
        assert stats.cells_computed == 0
        assert stats.cells_failed == 0

    def test_failure_records_roundtrip(self, queue):
        record = {"status": "crashed", "attempts": 3, "error": "boom"}
        queue.mark_failed("deadbeef", record)
        assert queue.failure("deadbeef") == record
        assert queue.failure("cafebabe") is None
        queue.clear_failure("deadbeef")
        assert queue.failure("deadbeef") is None


# ---------------------------------------------------------------------------
# Leases: exclusivity, heartbeat, expiry, reaping
# ---------------------------------------------------------------------------


class TestLease:
    def test_acquire_is_exclusive_until_released(self, queue):
        path = queue.lease_path("k1")
        lease = try_acquire(path, "worker-a", ttl_s=30.0)
        assert lease is not None
        assert lease_state(path) == "held"
        assert try_acquire(path, "worker-b", ttl_s=30.0) is None
        assert lease.release() is True
        assert lease_state(path) == "free"
        assert try_acquire(path, "worker-b", ttl_s=30.0) is not None

    def test_heartbeat_extends_and_release_is_owner_checked(self, queue):
        path = queue.lease_path("k2")
        lease = try_acquire(path, "worker-a", ttl_s=0.2)
        time.sleep(0.12)
        lease.heartbeat()
        time.sleep(0.12)
        # Without the heartbeat the lease would be stale by now.
        assert lease_state(path) == "held"
        assert read_lease(path).owner == "worker-a"
        assert lease.release() is True

    def test_heartbeat_refuses_to_stomp_a_new_owner(self, queue):
        path = queue.lease_path("k3")
        lease = try_acquire(path, "worker-a", ttl_s=0.05)
        time.sleep(0.1)
        # The lease expired; a rival legitimately reaps and re-acquires.
        rival = try_acquire(path, "worker-b", ttl_s=30.0)
        assert rival is not None
        with pytest.raises(LeaseLostError):
            lease.heartbeat()
        assert lease.lost
        # The loser's release must leave the new owner untouched.
        assert lease.release() is False
        assert read_lease(path).owner == "worker-b"

    def test_stale_torn_and_skewed_all_reapable(self, queue):
        for fault, plant in [("stale", plant_stale_lease),
                             ("torn", plant_torn_lease),
                             ("skewed", plant_skewed_lease)]:
            key = f"fault-{fault}"
            if fault == "torn":
                plant(queue, key)
            else:
                plant(queue, key)
            assert queue.lease_state(key) == fault
            lease = try_acquire(queue.lease_path(key), "worker-a",
                                ttl_s=30.0)
            assert lease is not None, fault
            assert queue.lease_state(key) == "held"
            lease.release()

    def test_reap_has_exactly_one_winner(self, queue):
        plant_stale_lease(queue, "contested")
        path = queue.lease_path("contested")
        results = []
        barrier = threading.Barrier(8)

        def contender():
            barrier.wait()
            results.append(reap_lease(path))

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results.count(True) == 1
        assert lease_state(path) == "free"

    def test_reap_refuses_a_lease_that_went_live(self, queue):
        """Regression: between a contender's staleness verdict and its
        rename, a rival can reap first *and* win the O_EXCL create —
        an unconditional rename would then steal the rival's fresh
        lease and two acquirers walk away owning the cell.  Reap must
        re-judge inside its critical section and leave a live lease
        strictly alone."""
        path = queue.lease_path("raced")
        lease = try_acquire(path, "worker-a", ttl_s=30.0)
        assert lease is not None
        # A contender acting on a pre-race staleness verdict reaps the
        # now-live lease; the under-slot re-check must refuse.
        assert reap_lease(path) is False
        assert lease_state(path) == "held"
        assert read_lease(path).owner == "worker-a"
        assert not list(path.parent.glob(f"{path.name}.reaped.*"))
        assert not list(path.parent.glob(f"{path.name}.reaplock*"))
        lease.release()

    def test_expired_lease_race_yields_exactly_one_owner(self, queue):
        """Satellite: two contenders for an expired lease — one winner
        via ``O_EXCL``, and the loser's backoff is the deterministic
        retry jitter, not a random sleep."""
        spec = small_job().cells()[0]
        key = cache_key_for(spec)
        plant_stale_lease(queue, key)
        path = queue.lease_path(key)
        outcomes: dict[str, Lease | None] = {}
        barrier = threading.Barrier(2)

        def contend(owner: str) -> None:
            barrier.wait()
            outcomes[owner] = try_acquire(path, owner, ttl_s=30.0)

        threads = [threading.Thread(target=contend, args=(o,))
                   for o in ("worker-a", "worker-b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wins = [o for o, lease in outcomes.items() if lease is not None]
        assert len(wins) == 1
        assert read_lease(path).owner == wins[0]

        # The losing worker's backoff replays exactly from the retry
        # policy's jitter derivation — same cell, same delay, always.
        worker = ServiceWorker(queue, cache=ResultCache(queue.root / "c"),
                               retry=RETRY, ttl_s=8.0)
        expected = min(
            RETRY.base_delay_s
            * (0.5 + RETRY.jitter_fraction(spec.seed, spec.platform,
                                           spec.category, 1)),
            8.0 / 4.0)
        assert worker._backoff_s(spec) == expected
        assert worker._backoff_s(spec) == expected  # deterministic

    def test_keepalive_thread_keeps_short_ttl_lease_alive(self, queue):
        path = queue.lease_path("keepalive")
        lease = try_acquire(path, "worker-a", ttl_s=0.15)
        with lease:
            time.sleep(0.5)
            assert lease_state(path) == "held"
        assert lease_state(path) == "free"


# ---------------------------------------------------------------------------
# ServiceWorker: drain a real job, leave nothing behind
# ---------------------------------------------------------------------------


class TestServiceWorker:
    def test_drains_job_and_matches_direct_runner(self, queue, cache,
                                                  direct_payloads):
        job = small_job()
        queue.submit(job)
        stats = make_worker(queue, cache).run_until_drained()
        assert stats.cells_computed == len(job.cells())
        assert stats.cells_failed == 0
        # No lease survives a clean drain.
        assert queue.held_leases() == {}
        assert not list(queue.leases_dir.glob("*.lease"))
        for spec in job.cells():
            payload = cache.get(cache_key_for(spec))
            assert payload is not None and payload_intact(payload)
            assert payload["payload_sha256"] == \
                direct_payloads[spec]["payload_sha256"]

    def test_second_worker_sees_only_cache_hits(self, queue, cache):
        job = small_job()
        queue.submit(job)
        make_worker(queue, cache).run_until_drained()
        stats = make_worker(queue, cache).run_until_drained()
        assert stats.cells_computed == 0
        assert stats.cells_already_done == len(job.cells())

    def test_terminal_failure_record_is_respected(self, queue, cache):
        job = small_job()
        queue.submit(job)
        failed_spec = job.cells()[0]
        queue.mark_failed(cache_key_for(failed_spec),
                          {"status": "crashed", "attempts": 3,
                           "error": "synthetic"})
        stats = make_worker(queue, cache).run_until_drained()
        # The failed cell is terminal — not retried, not computed.
        assert stats.cells_computed == len(job.cells()) - 1
        assert cache.get(cache_key_for(failed_spec)) is None

    def test_foreign_fresh_lease_is_respected(self, queue, cache):
        job = small_job(categories=("remote",))
        queue.submit(job)
        key = cache_key_for(job.cells()[0])
        blocker = try_acquire(queue.lease_path(key), "worker-elsewhere",
                              ttl_s=30.0)
        worker = make_worker(queue, cache)
        stats = worker.run_until_drained(max_idle_passes=2)
        assert stats.cells_computed == 0
        assert read_lease(queue.lease_path(key)).owner == "worker-elsewhere"
        blocker.release()
        stats = make_worker(queue, cache).run_until_drained()
        assert stats.cells_computed == 1

    def test_sigterm_drains_gracefully_mid_job(self, queue, cache):
        """Satellite: SIGTERM mid-run finishes the in-flight cell,
        releases every lease, and leaves the rest immediately
        re-claimable."""
        job = JobSpec.matrix(quick=True)
        queue.submit(job)
        worker = make_worker(queue, cache)
        # SIGTERM arrives as the second cell starts executing: one cell is
        # done and one is in flight.  A wall-clock timer is not mid-run
        # for sure, since the whole quick matrix can finish before it.
        execute, started = worker._execute, []

        def execute_then_signal(*args):
            started.append(args)
            if len(started) == 2:
                os.kill(os.getpid(), signal.SIGTERM)
            return execute(*args)

        worker._execute = execute_then_signal
        restore = worker.install_signal_handlers()
        try:
            stats = worker.run_until_drained()
        finally:
            restore()
        assert stats.drained
        # Something finished, something remains: genuinely mid-job.
        assert 0 < stats.cells_computed < len(job.cells())
        # No lease left held; every remaining cell claimable right now.
        assert queue.held_leases() == {}
        assert not list(queue.leases_dir.glob("*.lease"))
        for spec in job.cells():
            key = cache_key_for(spec)
            payload = cache.get(key)
            if payload is not None:
                assert payload_intact(payload)
                continue
            lease = try_acquire(queue.lease_path(key), "successor",
                                ttl_s=30.0)
            assert lease is not None
            lease.release()

    def test_drained_queue_finishable_by_a_successor(self, queue, cache):
        job = small_job(categories=("remote", "local", WORKLOAD_CATEGORY))
        queue.submit(job)
        first = make_worker(queue, cache)
        first.run_until_drained(max_cells=1)
        assert first.stats.cells_computed == 1
        stats = make_worker(queue, cache).run_until_drained()
        assert stats.cells_computed == len(job.cells()) - 1
        assert stats.cells_already_done >= 1


# ---------------------------------------------------------------------------
# Coordinator: observation, artefacts, cold resume
# ---------------------------------------------------------------------------


class TestCoordinator:
    def _drained(self, queue, cache, job=None):
        job = job or small_job()
        queue.submit(job)
        make_worker(queue, cache).run_until_drained()
        return job, Coordinator(queue, cache)

    def test_status_reflects_shared_state(self, queue, cache):
        job = small_job()
        queue.submit(job)
        coordinator = Coordinator(queue, cache)
        before = coordinator.status(job)
        assert (before.total, before.done) == (len(job.cells()), 0)
        assert not before.complete
        make_worker(queue, cache).run_until_drained()
        after = coordinator.status(job)
        assert after.done == after.total
        assert after.complete and after.succeeded
        assert "done" in after.summary()

    def test_wait_returns_on_completion_and_streams_polls(self, queue,
                                                          cache):
        job, coordinator = self._drained(queue, cache)
        seen = []
        status = coordinator.wait(job, timeout_s=5.0, poll_s=0.01,
                                  on_poll=seen.append)
        assert status.complete
        assert seen and seen[-1].complete

    def test_wait_times_out_with_final_status(self, queue, cache):
        job = small_job()
        queue.submit(job)
        coordinator = Coordinator(queue, cache)
        status = coordinator.wait(job, timeout_s=0.05, poll_s=0.01)
        assert not status.complete
        assert status.pending == len(job.cells())

    def test_manifest_matches_direct_runner_fingerprints(
            self, queue, cache, direct_payloads):
        job, coordinator = self._drained(queue, cache)
        manifest = coordinator.manifest(job, command="test")
        assert set(manifest.fingerprints) == {
            f"{s.platform}/{s.category}" for s in job.cells()}
        for spec, payload in direct_payloads.items():
            coords = f"{spec.platform}/{spec.category}"
            assert manifest.fingerprints[coords] == \
                payload["payload_sha256"]
        assert all(outcome["status"] == "ok"
                   for outcome in manifest.outcomes.values())

    def test_failure_records_surface_in_manifest(self, queue, cache):
        job = small_job()
        queue.submit(job)
        bad = job.cells()[0]
        queue.mark_failed(cache_key_for(bad),
                          {"status": "crashed", "attempts": 2,
                           "error": "synthetic"})
        make_worker(queue, cache).run_until_drained()
        coordinator = Coordinator(queue, cache)
        status = coordinator.status(job)
        assert status.complete and not status.succeeded
        assert status.failed == 1
        outcome = coordinator.manifest(job).outcomes[
            f"{bad.platform}/{bad.category}"]
        assert outcome["status"] == "crashed"
        assert outcome["error"] == "synthetic"

    def test_progress_jsonl_and_metrics_export(self, queue, cache,
                                               tmp_path):
        job, coordinator = self._drained(queue, cache)
        feed = tmp_path / "progress.jsonl"
        for _ in range(2):
            coordinator.append_progress(feed, coordinator.status(job))
        records = [json.loads(line)
                   for line in feed.read_text().splitlines()]
        assert len(records) == 2
        assert records[-1]["done"] == len(job.cells())
        assert records[-1]["job_id"] == job.job_id
        metrics = coordinator.write_metrics(tmp_path / "metrics.prom")
        text = metrics.read_text()
        assert "repro_service_cells_done" in text
        assert "repro_service_polls_total" in text

    def test_cold_resume_skips_completed_cells(self, queue, cache,
                                               tmp_path):
        """A manifest plus the shared cache is a full resume: nothing
        already computed is recomputed."""
        job, coordinator = self._drained(queue, cache)
        manifest = coordinator.manifest(job)
        resumed = JobSpec.from_manifest(manifest)
        assert {(c.platform, c.category, c.seed, c.knobs)
                for c in resumed.cells()} == \
            {(c.platform, c.category, c.seed, c.knobs)
             for c in job.cells()}
        # Cold restart: brand-new queue directory, same shared cache.
        fresh_queue = JobQueue(tmp_path / "queue2")
        fresh_queue.submit(resumed)
        stats = make_worker(fresh_queue, cache).run_until_drained()
        assert stats.cells_computed == 0
        assert stats.cells_already_done == len(resumed.cells())


# ---------------------------------------------------------------------------
# Single-flight across jobs sharing a cell
# ---------------------------------------------------------------------------


def test_overlapping_jobs_share_cells_through_one_lease(queue, cache):
    """Two campaigns containing the same cell contend on one lease and
    one cache entry — the stampede-suppression property."""
    job_a = small_job(categories=("remote", WORKLOAD_CATEGORY))
    job_b = small_job(categories=("remote",))
    queue.submit(job_a)
    queue.submit(job_b)
    assert len(queue.job_ids()) == 2
    shared = job_b.cells()[0]
    assert shared in job_a.cells()
    stats = make_worker(queue, cache).run_until_drained()
    # The shared cell computes once and satisfies both jobs via cache.
    assert stats.cells_computed == 2
    coordinator = Coordinator(queue, cache)
    assert coordinator.status(job_a).complete
    assert coordinator.status(job_b).complete
