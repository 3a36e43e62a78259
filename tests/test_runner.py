"""The experiment runner: determinism, parallelism, caching, laziness.

The determinism tests are the regression guard for the original bug:
cell seeds were derived with Python's per-process-salted ``hash()``, so
the "measured" matrix silently changed between interpreter runs.  The
smoke test runs the matrix in fresh subprocesses under *different*
``PYTHONHASHSEED`` values and demands byte-identical per-cell scores.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.attacks.base import AttackCategory
from repro.attacks.suites import MatrixKnobs
from repro.common import PlatformClass
from repro.core.matrix import EvaluationMatrix
from repro.core.platforms import profile_for
from repro.cpu.soc import make_embedded_soc, soc_factory_for
from repro.runner import (
    INTEGRITY_KEY,
    NO_RETRY,
    WORKLOAD_CATEGORY,
    CellSpec,
    ChaosConfig,
    ExperimentRunner,
    ResultCache,
    RetryPolicy,
    cache_key_for,
    derive_cell_seed,
    derive_seed,
    execute_spec,
    parallel_map,
    payload_fingerprint,
    payload_intact,
)
from repro.runner import engine as engine_module


class TestSeeding:
    def test_known_value_anchor(self):
        """The derivation is pinned: sha256(f"{seed}:{platform}:{category}")
        truncated to 64 bits.  If this constant moves, every cached and
        published measurement silently changes — that must be loud."""
        assert derive_cell_seed(0x2019, "server-desktop", "remote") \
            == 0xFADF03C75BF8244E

    def test_cells_get_distinct_streams(self):
        seeds = {derive_cell_seed(0x2019, p.value, c.value)
                 for p in PlatformClass for c in AttackCategory}
        assert len(seeds) == len(PlatformClass) * len(AttackCategory)

    def test_never_zero(self):
        assert derive_seed() != 0
        assert derive_cell_seed(0, "", "") != 0

    def test_matrix_exposes_cell_seed(self):
        matrix = EvaluationMatrix(seed=0x2019)
        assert matrix.cell_seed(PlatformClass.SERVER_DESKTOP,
                                AttackCategory.REMOTE) \
            == 0xFADF03C75BF8244E


_MATRIX_SCRIPT = """
import json, sys
from repro.core.matrix import EvaluationMatrix
matrix = EvaluationMatrix(seed=0x2019)
matrix.evaluate()
json.dump({f"{p.value}:{c.value}": cell.raw_score
           for (p, c), cell in matrix.cells.items()}, sys.stdout)
"""


def _matrix_scores_in_subprocess(hashseed: str) -> dict[str, float]:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hashseed
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _MATRIX_SCRIPT],
                          env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


class TestHashSeedInvariance:
    def test_matrix_identical_across_hash_randomisation(self):
        """Two fresh interpreters with different hash salts must measure
        byte-identical raw scores in every cell (the headline bugfix)."""
        first = _matrix_scores_in_subprocess("1")
        second = _matrix_scores_in_subprocess("2")
        assert first == second
        assert len(first) == 12


@pytest.fixture(scope="module")
def serial_matrix() -> EvaluationMatrix:
    matrix = EvaluationMatrix(runner=ExperimentRunner())
    matrix.evaluate()
    return matrix


@pytest.fixture(scope="module")
def warm_cache_root(tmp_path_factory, serial_matrix) -> Path:
    """A cache directory pre-populated by one full quick-matrix run."""
    root = tmp_path_factory.mktemp("cells")
    runner = ExperimentRunner(cache=ResultCache(root))
    matrix = EvaluationMatrix(runner=runner)
    matrix.evaluate()
    _assert_same_cells(matrix, serial_matrix)
    return root


def _assert_same_cells(matrix: EvaluationMatrix,
                       other: EvaluationMatrix) -> None:
    assert matrix.cells.keys() == other.cells.keys()
    for key, cell in matrix.cells.items():
        expected = other.cells[key]
        assert cell.raw_score == expected.raw_score, key
        assert [(a.name, a.success, a.score) for a in cell.attacks] \
            == [(a.name, a.success, a.score) for a in expected.attacks], key
    assert matrix.workloads.keys() == other.workloads.keys()
    for platform, workload in matrix.workloads.items():
        assert workload.cycles == other.workloads[platform].cycles


def _fail_and_mark(path: str):
    """Module-level (picklable) worker: record the call, then fail."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x")
    raise OSError("experiment failed inside worker")


def _cheap_specs(count: int = 2) -> list[CellSpec]:
    """The cheapest real cells (sub-millisecond attack suites)."""
    knobs = MatrixKnobs.quick().as_key()
    specs = [CellSpec(seed=0x2019, platform="embedded", category="local",
                      knobs=knobs),
             CellSpec(seed=0x2019, platform="mobile", category="local",
                      knobs=knobs),
             CellSpec(seed=0x2019, platform="embedded", category="remote",
                      knobs=knobs)]
    return specs[:count]


class TestParallelExecution:
    def test_parallel_equals_serial_cell_for_cell(self, serial_matrix):
        runner = ExperimentRunner(jobs=4)
        matrix = EvaluationMatrix(runner=runner)
        matrix.evaluate()
        _assert_same_cells(matrix, serial_matrix)
        assert runner.stats.mode == "process-pool"
        assert runner.stats.cells_executed == 15
        assert 0.0 < runner.stats.worker_utilisation <= 1.0

    def test_infrastructure_failure_falls_back_to_serial(self, monkeypatch):
        class _NoPool:
            def __init__(self, *a, **k):
                raise OSError("fork denied")

        # The engine imports the pool class where it builds a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _NoPool)
        results, mode = parallel_map(abs, [-1, -2, -3], jobs=4)
        assert results == [1, 2, 3]
        assert mode == "serial-fallback"

    def test_task_errors_propagate(self):
        def boom(_):
            raise ValueError("experiment failed")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], jobs=1)

    def test_worker_cell_exception_propagates_without_serial_rerun(
            self, tmp_path):
        """An ``OSError`` raised *by the cell* inside a worker must not
        be conflated with pool-infrastructure failure: it propagates,
        and the cells are not silently re-executed serially (each marker
        file records exactly one execution)."""
        markers = [str(tmp_path / "a"), str(tmp_path / "b")]
        with pytest.raises(OSError, match="inside worker"):
            parallel_map(_fail_and_mark, markers, jobs=2)
        for marker in markers:
            assert Path(marker).read_text(encoding="utf-8") == "x"


class TestSupervisedRunner:
    """The tentpole: degraded paths of the fault-tolerant executor."""

    def test_pool_unavailable_degrades_to_serial_with_outcomes(
            self, monkeypatch):
        class _NoPool:
            def __init__(self, *a, **k):
                raise OSError("fork denied")

        # The engine imports the pool class where it builds a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _NoPool)
        runner = ExperimentRunner(jobs=4)
        specs = _cheap_specs(2)
        results = runner.run(specs)
        assert runner.stats.mode == "serial-fallback"
        assert len(results) == 2
        for spec in specs:
            outcome = runner.stats.outcomes[(spec.platform, spec.category)]
            assert outcome.status == "degraded-to-serial"
            assert outcome.ok
            assert payload_intact(results[spec])

    def test_hung_worker_is_detected_and_timed_out(self):
        chaos = ChaosConfig(rate=1.0, modes=("hang",), hang_s=10.0)
        runner = ExperimentRunner(jobs=2, timeout_s=0.5, retry=NO_RETRY,
                                  chaos=chaos)
        results = runner.run(_cheap_specs(2))
        assert results == {}
        assert runner.stats.pool_rebuilds >= 1
        for outcome in runner.stats.outcomes.values():
            assert outcome.status == "timed-out"
            assert outcome.attempts == 1
            assert "timeout" in outcome.error

    def test_worker_crash_yields_structured_failure(self):
        chaos = ChaosConfig(rate=1.0, modes=("crash",))
        runner = ExperimentRunner(jobs=2, timeout_s=30.0, retry=NO_RETRY,
                                  chaos=chaos)
        results = runner.run(_cheap_specs(2))
        assert results == {}
        assert runner.stats.pool_rebuilds >= 1
        for outcome in runner.stats.outcomes.values():
            assert outcome.status == "failed"
            assert "worker-crash" in outcome.error

    def test_corrupt_payload_detected_not_trusted(self):
        spec = _cheap_specs(1)[0]
        payload = execute_spec(spec)
        assert payload_intact(payload)
        payload["kind"] = "tampered"
        assert not payload_intact(payload)

        # The corrupt chaos mode (stale integrity digest) is caught and
        # charged as a structured failure, never returned as a result.
        chaos = ChaosConfig(rate=1.0, modes=("corrupt",))
        runner = ExperimentRunner(retry=NO_RETRY, chaos=chaos)
        results = runner.run([spec])
        assert results == {}
        outcome = runner.stats.outcomes[(spec.platform, spec.category)]
        assert outcome.status == "failed"
        assert "corrupt-payload" in outcome.error

    def test_flaky_cell_recovers_as_ok_after_retry(self, monkeypatch):
        spec = _cheap_specs(1)[0]
        real = engine_module.execute_spec
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient harness failure")
            return real(s)

        monkeypatch.setattr(engine_module, "execute_spec", flaky)
        runner = ExperimentRunner(
            retry=RetryPolicy(max_retries=2, base_delay_s=0.001))
        results = runner.run([spec])
        outcome = runner.stats.outcomes[(spec.platform, spec.category)]
        assert outcome.status == "ok-after-retry"
        assert outcome.attempts == 2
        assert runner.stats.cells_retried == 1
        assert runner.stats.retries_total == 1
        assert payload_intact(results[spec])

    def test_retry_jitter_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_retries=5, base_delay_s=0.05,
                             max_delay_s=0.4)
        delays = [policy.delay_s(1, "embedded", "local", a)
                  for a in (1, 2, 3, 4, 5)]
        assert delays == [policy.delay_s(1, "embedded", "local", a)
                          for a in (1, 2, 3, 4, 5)]
        assert all(0.0 < d <= 0.4 for d in delays)
        # Different cells draw different jitter from the same policy.
        assert policy.delay_s(1, "embedded", "local", 1) \
            != policy.delay_s(1, "mobile", "local", 1)

    def test_profile_lists_outcome_column(self):
        runner = ExperimentRunner()
        runner.run(_cheap_specs(2))
        profile = runner.stats.profile()
        assert "outcome" in profile
        assert "ok" in profile


class TestResultCache:
    def test_hits_return_identical_scores_and_count(self, warm_cache_root,
                                                    serial_matrix):
        runner = ExperimentRunner(cache=ResultCache(warm_cache_root))
        matrix = EvaluationMatrix(runner=runner)
        matrix.evaluate()
        _assert_same_cells(matrix, serial_matrix)
        assert runner.stats.cache_hits == 15
        assert runner.stats.cache_misses == 0
        assert runner.stats.hit_rate == 1.0

    def test_corrupted_entry_discarded_not_fatal(self, warm_cache_root,
                                                 serial_matrix):
        victim = next(iter(sorted(warm_cache_root.glob("*.json"))))
        victim.write_text("{truncated garbage", encoding="utf-8")
        runner = ExperimentRunner(cache=ResultCache(warm_cache_root))
        matrix = EvaluationMatrix(runner=runner)
        matrix.evaluate()
        _assert_same_cells(matrix, serial_matrix)
        assert runner.stats.cache_misses == 1
        assert runner.stats.corrupt_entries == 1
        # The recomputed payload was re-persisted, valid again.
        assert json.loads(victim.read_text(encoding="utf-8"))

    def test_key_binds_all_inputs(self):
        spec = CellSpec(seed=1, platform="embedded", category="remote",
                        knobs=MatrixKnobs.quick().as_key())
        variants = [
            CellSpec(seed=2, platform="embedded", category="remote",
                     knobs=MatrixKnobs.quick().as_key()),
            CellSpec(seed=1, platform="mobile", category="remote",
                     knobs=MatrixKnobs.quick().as_key()),
            CellSpec(seed=1, platform="embedded", category="local",
                     knobs=MatrixKnobs.quick().as_key()),
            CellSpec(seed=1, platform="embedded", category="remote",
                     knobs=MatrixKnobs.full().as_key()),
        ]
        keys = {cache_key_for(v) for v in variants}
        keys.add(cache_key_for(spec))
        assert len(keys) == 5
        # Package version participates: bumping it invalidates implicitly.
        assert cache_key_for(spec, version="999.0") != cache_key_for(spec)

    def test_unwritable_cache_degrades_not_fatal(self, tmp_path):
        shadow = tmp_path / "shadowed"
        shadow.write_text("a file, not a directory", encoding="utf-8")
        cache = ResultCache(shadow)
        cache.put("abc", {"x": 1})  # must not raise
        assert cache.get("abc") is None
        assert len(cache) == 0

    def test_clear_is_explicit_invalidation(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"x": 1})
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get("abc") is None


class TestCacheCrashSafety:
    def test_torn_tmp_file_is_invisible_and_swept(self, tmp_path):
        """A SIGKILLed writer leaves a ``*.tmp`` file, never a torn
        ``*.json``: reads ignore it, and sweep() collects it once it
        is demonstrably orphaned."""
        cache = ResultCache(tmp_path)
        cache.put("abc", {"x": 1})
        torn = tmp_path / "abc.deadhost-9999-feed0000.0.tmp"
        torn.write_text('{"x": 1, "trunca', encoding="utf-8")
        assert cache.get("abc") == {"x": 1}   # tmp never consulted
        assert len(cache) == 1                # tmp not counted
        # Fresh *foreign* temp files are protected by the grace window:
        # another host could be mid-put this very moment.
        assert cache.sweep() == 0
        assert torn.exists()
        # Aged past the grace window it is a dead host's orphan.
        old = time.time() - 3600.0
        os.utime(torn, (old, old))
        assert cache.sweep() == 1
        assert not torn.exists()
        assert cache.stale_tmp_removed == 1
        assert cache.get("abc") == {"x": 1}   # real entry untouched

    def test_own_tmp_files_swept_without_grace(self, tmp_path):
        """This process's own writer tag marks its temp files as
        certainly dead — the inline ``put`` already replaced or
        unlinked them, so anything left is reaped immediately."""
        from repro.runner.cache import writer_tag
        cache = ResultCache(tmp_path)
        own = tmp_path / f"abc.{writer_tag()}.999.tmp"
        own.write_text("{", encoding="utf-8")
        assert cache.sweep() == 1
        assert not own.exists()

    def test_two_writers_racing_on_one_key_never_tear(self, tmp_path):
        """Two caches with distinct writer identities (two hosts on a
        shared directory) hammering the same key concurrently must end
        with an intact entry from one of them and no temp debris."""
        import threading

        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        payload_a = {"writer": "a", "rounds": list(range(32))}
        payload_b = {"writer": "b", "rounds": list(range(32))}
        start = threading.Barrier(2)

        def hammer(cache, payload):
            start.wait()
            for _ in range(50):
                cache.put("contested", payload)

        threads = [threading.Thread(target=hammer, args=(a, payload_a)),
                   threading.Thread(target=hammer, args=(b, payload_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = a.get("contested")
        assert final in (payload_a, payload_b)
        assert a.corrupt_discarded == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_validator_hook_quarantines_parseable_but_untrusted(
            self, tmp_path):
        cache = ResultCache(tmp_path,
                            validator=lambda p: p.get("blessed") is True)
        cache.put("good", {"blessed": True})
        cache.put("bad", {"blessed": False})
        assert cache.get("good") == {"blessed": True}
        assert cache.get("bad") is None
        assert cache.corrupt_discarded == 1
        assert not cache.path_for("bad").exists()

    def test_tampered_entry_fails_integrity_and_is_recomputed(
            self, warm_cache_root, serial_matrix):
        """Valid JSON whose *contents* were altered (stale integrity
        digest) must be quarantined by the runner, not trusted."""
        victim = sorted(warm_cache_root.glob("*.json"))[1]
        payload = json.loads(victim.read_text(encoding="utf-8"))
        assert payload[INTEGRITY_KEY] == payload_fingerprint(payload)
        payload["kind"] = "forged"
        victim.write_text(json.dumps(payload), encoding="utf-8")

        runner = ExperimentRunner(cache=ResultCache(warm_cache_root))
        matrix = EvaluationMatrix(runner=runner)
        matrix.evaluate()
        _assert_same_cells(matrix, serial_matrix)
        assert runner.stats.cache_misses == 1
        assert runner.stats.corrupt_entries == 1
        # Recomputed and re-persisted with a matching digest.
        restored = json.loads(victim.read_text(encoding="utf-8"))
        assert restored[INTEGRITY_KEY] == payload_fingerprint(restored)


_KILLED_RUN_SCRIPT = """
import os, signal, sys
from repro.core.matrix import EvaluationMatrix
from repro.runner import ExperimentRunner, ResultCache
from repro.runner import engine

root, kill_after = sys.argv[1], int(sys.argv[2])
real = engine.execute_spec
state = {"done": 0}

def dying_execute(spec):
    if state["done"] >= kill_after:
        os.kill(os.getpid(), signal.SIGKILL)   # no cleanup, no atexit
    state["done"] += 1
    return real(spec)

engine.execute_spec = dying_execute
runner = ExperimentRunner(cache=ResultCache(root))
EvaluationMatrix(runner=runner).evaluate()
"""


class TestResumeAfterKill:
    KILL_AFTER = 5

    def test_killed_run_resumes_from_cache(self, tmp_path, serial_matrix):
        """SIGKILL the matrix mid-flight; the rerun must serve every
        completed cell from cache and finish with identical results."""
        import signal
        import subprocess

        root = tmp_path / "cells"
        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_RUN_SCRIPT, str(root),
             str(self.KILL_AFTER)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == -signal.SIGKILL

        # Only whole, trustworthy entries survived the kill.
        cache = ResultCache(root)
        assert len(cache) == self.KILL_AFTER
        for path in root.glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload[INTEGRITY_KEY] == payload_fingerprint(payload)

        runner = ExperimentRunner(cache=ResultCache(root))
        matrix = EvaluationMatrix(runner=runner)
        matrix.evaluate()
        assert runner.stats.cache_hits == self.KILL_AFTER
        assert runner.stats.cache_misses == 15 - self.KILL_AFTER
        assert runner.stats.cells_failed == 0
        _assert_same_cells(matrix, serial_matrix)


class TestMatrixLaziness:
    def test_scores_trigger_lazy_evaluation(self):
        platforms = (profile_for(PlatformClass.EMBEDDED),)
        matrix = EvaluationMatrix(platforms=platforms)
        perf = matrix.performance_scores()   # no prior evaluate() call
        assert set(perf) == {PlatformClass.EMBEDDED}
        assert matrix.cells  # evaluation happened under the hood
        energy = matrix.energy_constraint_scores()
        assert energy[PlatformClass.EMBEDDED] == 1.0

    def test_evaluate_is_idempotent(self):
        platforms = (profile_for(PlatformClass.EMBEDDED),)
        runner = ExperimentRunner()
        matrix = EvaluationMatrix(platforms=platforms, runner=runner)
        first = matrix.evaluate()
        executed = runner.stats.cells_executed
        assert executed == len(AttackCategory) + 1  # cells + workload
        second = matrix.evaluate()
        assert second is first
        assert runner.stats.cells_executed == executed  # nothing reran
        cells = dict(first)
        assert matrix.evaluate(force=True).keys() == cells.keys()


class TestWorkerConstructibility:
    def test_every_platform_has_a_registered_factory(self):
        for platform in PlatformClass:
            soc = soc_factory_for(platform)()
            assert soc.config.platform is platform

    def test_workload_spec_executes(self):
        payload = execute_spec(CellSpec(
            seed=0x2019, platform="embedded", category=WORKLOAD_CATEGORY,
            knobs=MatrixKnobs.quick().as_key()))
        assert payload["kind"] == WORKLOAD_CATEGORY
        assert payload["workload"]["cycles"] > 0

    def test_custom_profile_falls_back_to_local_execution(self):
        # An unregistered factory building the very same SoC runs
        # in-process and must give the runner path's cells and workload.
        registered = profile_for(PlatformClass.EMBEDDED)
        custom = dataclasses.replace(registered, description="custom rig",
                                     make_soc=lambda: make_embedded_soc())
        local = EvaluationMatrix(platforms=(custom,), seed=7)
        remote = EvaluationMatrix(platforms=(registered,), seed=7)
        assert not local._runnable_in_worker(custom)
        cells = local.evaluate()
        assert (PlatformClass.EMBEDDED, AttackCategory.REMOTE) in cells
        assert cells == remote.evaluate()
        assert local.workloads == remote.workloads
