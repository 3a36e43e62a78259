"""The observability layer: tracing, metrics, exports, manifests.

Three properties carry the weight:

* **Determinism** — span IDs and record order are pure functions of the
  cell seed (timestamps aside), so traces from two runs of the same
  matrix are diffable artifacts;
* **Export fidelity** — the Chrome ``trace_event`` and Prometheus text
  serialisations are byte-stable under a fake clock (golden files in
  ``tests/golden/``), so downstream tooling can rely on the format;
* **Fast-path neutrality** — an unobserved run produces byte-identical
  payload fingerprints to an observed one and never pays for telemetry
  it didn't ask for.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.attacks.suites import MatrixKnobs
from repro.obs import (
    CELL_METRICS_KEY,
    NULL_OBSERVER,
    SPANS_KEY,
    MetricsRegistry,
    Observability,
    RunManifest,
    RunObserver,
    Tracer,
    derive_span_id,
    metrics_to_prometheus,
    records_to_chrome,
    records_to_jsonl,
)
from repro.obs.tracer import VOLATILE_FIELDS
from repro.runner import (
    INTEGRITY_KEY,
    CellSpec,
    ExperimentRunner,
    ResultCache,
    execute_spec,
    payload_fingerprint,
    payload_intact,
)
from repro.runner.stats import CellOutcome, RunnerStats

GOLDEN = Path(__file__).parent / "golden"

KNOBS = MatrixKnobs.quick().as_key()


def _cheap_spec(platform: str = "embedded",
                category: str = "local") -> CellSpec:
    return CellSpec(seed=0x2019, platform=platform, category=category,
                    knobs=KNOBS)


class FakeClock:
    """Monotonic fake clock: every read advances by a fixed step."""

    def __init__(self, step_s: float = 0.001) -> None:
        self.now = 0.0
        self.step = step_s

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


def _scripted_records(step_s: float = 0.001) -> list[dict]:
    """A small fixed trace: nested spans, events, two scopes."""
    tracer = Tracer(scope="runner", seed=0x2019, clock=FakeClock(step_s))
    with tracer.span("runner.run", cat="runner", cells=2):
        with tracer.span("cell:embedded/local", cat="cell", seed=0x2019):
            tracer.event("attempt", cat="cell", attempt=0)
        tracer.event("cache.hit", cat="cache", cell="mobile/local")
    tracer.ingest([{
        "kind": "span", "name": "attack:code-injection", "cat": "attack",
        "id": derive_span_id(7, "embedded/local", "attack:code-injection",
                             0),
        "parent": None, "scope": "cell", "seq": 0, "ts_us": 10,
        "dur_us": 20, "args": {},
    }], scope="embedded/local")
    return tracer.records


def _scripted_registry() -> MetricsRegistry:
    """A small fixed registry exercising all three metric kinds."""
    registry = MetricsRegistry()
    counter = registry.counter("repro_demo_events_total",
                               "Demo events by kind")
    counter.inc(3, kind="hit")
    counter.inc(kind="miss")
    registry.gauge("repro_demo_queue_depth", "Demo queue depth").set(2)
    histogram = registry.histogram("repro_demo_wall_seconds",
                                   "Demo wall time",
                                   buckets=(0.001, 0.01, 0.1, 1.0))
    for value in (0.0005, 0.002, 0.05, 5.0):
        histogram.observe(value, cell="embedded/local")
    return registry


def _stable(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
            for record in records]


class TestTracerDeterminism:
    def test_span_id_anchor(self):
        """The derivation is pinned; if this moves, recorded traces stop
        being comparable across versions."""
        assert derive_span_id(0x2019, "runner", "runner.run", 0) \
            == derive_span_id(0x2019, "runner", "runner.run", 0)
        assert derive_span_id(0x2019, "runner", "runner.run", 0) \
            != derive_span_id(0x2019, "runner", "runner.run", 1)
        assert derive_span_id(1, "s", "n", 0) != derive_span_id(2, "s", "n", 0)

    def test_same_seed_same_records_despite_clock(self):
        fast = _scripted_records(step_s=0.0001)
        slow = _scripted_records(step_s=0.5)
        assert _stable(fast) == _stable(slow)
        # The volatile fields really did differ — the comparison above
        # is not vacuous.
        assert [r["ts_us"] for r in fast] != [r["ts_us"] for r in slow]

    def test_nesting_records_parent_ids(self):
        tracer = Tracer(scope="t", seed=1, clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.span_id != outer.span_id
            tracer.event("leaf")
        by_name = {r["name"]: r for r in tracer.records}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["leaf"]["parent"] == by_name["outer"]["id"]

    def test_failed_span_is_flagged(self):
        tracer = Tracer(scope="t", seed=1, clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.records[0]["args"]["failed"] is True

    def test_cell_telemetry_is_deterministic(self):
        """Two executions of the same spec ship identical span records
        (IDs, order, args) once timestamps are stripped."""
        spec = _cheap_spec()
        first = execute_spec(spec, collect=True)
        second = execute_spec(spec, collect=True)
        assert _stable(first[SPANS_KEY]) == _stable(second[SPANS_KEY])
        assert first[CELL_METRICS_KEY] == second[CELL_METRICS_KEY]


class TestExportGoldens:
    """Byte-stable serialisations under the fake clock."""

    def test_chrome_trace_matches_golden(self):
        document = records_to_chrome(_scripted_records(),
                                     process_name="repro-golden")
        golden = json.loads((GOLDEN / "trace_chrome.json").read_text())
        assert document == golden

    def test_jsonl_matches_golden(self):
        text = records_to_jsonl(_scripted_records())
        assert text == (GOLDEN / "trace.jsonl").read_text()
        # Every line is one valid JSON object.
        parsed = [json.loads(line) for line in text.splitlines()]
        assert len(parsed) == len(_scripted_records())

    def test_prometheus_matches_golden(self):
        text = metrics_to_prometheus(_scripted_registry())
        assert text == (GOLDEN / "metrics.prom").read_text()

    def test_chrome_trace_structure(self):
        document = records_to_chrome(_scripted_records())
        events = document["traceEvents"]
        # Metadata first: the process, then one named thread per scope.
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"
        thread_names = {e["args"]["name"] for e in events
                        if e.get("name") == "thread_name"}
        assert thread_names == {"runner", "embedded/local"}
        phases = {e["ph"] for e in events}
        assert "X" in phases and "i" in phases
        for e in events:
            if e["ph"] == "X":
                assert "dur" in e and e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_prometheus_structure(self):
        lines = metrics_to_prometheus(_scripted_registry()).splitlines()
        types = [ln for ln in lines if ln.startswith("# TYPE")]
        assert types == [
            "# TYPE repro_demo_events_total counter",
            "# TYPE repro_demo_queue_depth gauge",
            "# TYPE repro_demo_wall_seconds histogram",
        ]
        buckets = [ln for ln in lines if "_bucket" in ln]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
        assert counts == sorted(counts)  # cumulative
        assert 'le="+Inf"' in buckets[-1]
        # +Inf bucket equals _count.
        count_line = next(ln for ln in lines if "_count" in ln)
        assert counts[-1] == int(count_line.rsplit(" ", 1)[1])


class TestMetricsRegistry:
    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_kind_collision_is_loud(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("x")

    def test_histogram_requires_sorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 0.5))

    def test_merge_json_roundtrip(self):
        """A worker snapshot folded into an empty registry reproduces
        the worker's registry exactly."""
        source = _scripted_registry()
        merged = MetricsRegistry()
        merged.merge_json(source.to_json())
        assert merged.to_json() == source.to_json()

    def test_merge_json_attaches_extra_labels(self):
        source = MetricsRegistry()
        source.counter("n", "h").inc(5, kind="a")
        merged = MetricsRegistry()
        merged.merge_json(source.to_json(), cell="embedded/local")
        assert merged.counter("n").value(
            kind="a", cell="embedded/local") == 5

    def test_merge_json_accumulates_counters(self):
        source = MetricsRegistry()
        source.counter("n").inc(5)
        merged = MetricsRegistry()
        merged.merge_json(source.to_json())
        merged.merge_json(source.to_json())
        assert merged.counter("n").value() == 10


class TestRunManifest:
    def _stats(self) -> RunnerStats:
        stats = RunnerStats(jobs=2, mode="process-pool", cache_hits=1,
                            cache_misses=2, wall_time_s=0.25)
        stats.outcomes[("embedded", "local")] = CellOutcome("ok")
        stats.outcomes[("mobile", "local")] = CellOutcome(
            "failed", attempts=3, error="raised: boom")
        return stats

    def test_roundtrip_through_disk(self, tmp_path):
        manifest = RunManifest.from_stats(
            "1.3.0", self._stats(), command="repro figure1", seed=0x2019,
            knobs={"traces": 60}, fingerprints={"embedded/local": "ab" * 32})
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.read(path)
        assert loaded == manifest
        assert loaded.to_dict() == manifest.to_dict()

    def test_schema_is_checked(self):
        with pytest.raises(ValueError, match="repro-run-manifest/1"):
            RunManifest.from_dict({"schema": "other/9", "version": "x"})

    def test_outcome_rows_mirror_stats(self):
        manifest = RunManifest.from_stats("1.3.0", self._stats())
        assert manifest.outcomes["embedded/local"] == {
            "status": "ok", "attempts": 1, "error": None}
        assert manifest.outcomes["mobile/local"]["status"] == "failed"
        assert manifest.runner["cells_failed"] == 1
        assert manifest.runner["mode"] == "process-pool"

    def test_diff_surfaces_what_matters(self):
        a = RunManifest.from_stats("1.3.0", self._stats(), seed=1,
                                   fingerprints={"embedded/local": "a" * 64})
        stats_b = self._stats()
        stats_b.outcomes[("mobile", "local")] = CellOutcome("ok")
        b = RunManifest.from_stats("1.4.0", stats_b, seed=1,
                                   fingerprints={"embedded/local": "b" * 64})
        notes = "\n".join(a.diff(b))
        assert "version" in notes
        assert "outcome mobile/local: failed != ok" in notes
        assert "payload embedded/local" in notes
        assert a.diff(a) == []


class TestObservedRun:
    """End to end: runner edges -> tracer + metrics + manifest."""

    def test_manifest_matches_runner_stats(self, tmp_path):
        sink = Observability(run_seed=0x2019, command="test-run")
        runner = ExperimentRunner(observer=sink)
        specs = [_cheap_spec("embedded", "local"),
                 _cheap_spec("mobile", "local")]
        results = runner.run(specs)
        assert len(results) == 2

        manifest = sink.manifest()
        assert set(manifest.outcomes) == {"embedded/local", "mobile/local"}
        for (platform, category), outcome in runner.stats.outcomes.items():
            row = manifest.outcomes[f"{platform}/{category}"]
            assert row["status"] == outcome.status
            assert row["attempts"] == outcome.attempts
        for spec, payload in results.items():
            coords = f"{spec.platform}/{spec.category}"
            assert manifest.fingerprints[coords] == payload[INTEGRITY_KEY]
        assert manifest.runner["wall_time_s"] == round(
            runner.stats.wall_time_s, 6)

    def test_worker_telemetry_is_adopted(self):
        # The microarchitectural suite both runs attack phases and
        # retires real core instructions, so every telemetry stream
        # (spans, core counters, cache counters) is exercised.
        sink = Observability(run_seed=0x2019)
        runner = ExperimentRunner(observer=sink)
        runner.run([_cheap_spec("embedded", "microarchitectural")])
        names = {r["name"] for r in sink.tracer.records}
        assert "runner.run" in names
        assert "cell:embedded/microarchitectural" in names
        # In-cell attack spans arrived under the cell's own scope.
        scopes = {r["scope"] for r in sink.tracer.records}
        assert "embedded/microarchitectural" in scopes
        attack_spans = [r for r in sink.tracer.records
                        if r["cat"] == "attack"]
        assert attack_spans
        # Worker-side core/cache metrics were merged with a cell label.
        snapshot = sink.metrics.to_json()
        assert "repro_core_instructions_total" in snapshot
        assert "repro_cache_events_total" in snapshot
        assert any("cell=embedded/microarchitectural" in key for key in
                   snapshot["repro_core_instructions_total"]["values"])
        assert sink.metrics.counter(
            "repro_runner_cell_outcomes_total").value(status="ok") == 1

    def test_cache_hits_are_observed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _cheap_spec()
        ExperimentRunner(cache=cache).run([spec])

        sink = Observability()
        runner = ExperimentRunner(cache=cache, observer=sink)
        runner.run([spec])
        assert runner.stats.cache_hits == 1
        assert sink.metrics.counter(
            "repro_runner_cache_events_total").value(event="hit") == 1
        assert any(r["name"] == "cache.hit" for r in sink.tracer.records)
        assert sink.manifest().outcomes["embedded/local"]["attempts"] == 0

    def test_write_artifacts(self, tmp_path):
        sink = Observability(run_seed=0x2019, command="artifact-run")
        ExperimentRunner(observer=sink).run([_cheap_spec()])
        written = sink.write_artifacts(
            trace=tmp_path / "trace.json",
            metrics=tmp_path / "metrics.prom",
            manifest=tmp_path / "manifest.json")
        assert sorted(p.name for p in written) == [
            "manifest.json", "metrics.prom", "trace.json", "trace.jsonl"]
        document = json.loads((tmp_path / "trace.json").read_text())
        assert document["traceEvents"]
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_runner_cell_outcomes_total counter" in prom
        loaded = RunManifest.read(tmp_path / "manifest.json")
        assert loaded.outcomes["embedded/local"]["status"] == "ok"


class TestFastPathNeutrality:
    """Observation must never change results or tax unobserved runs."""

    def test_unobserved_payload_carries_no_telemetry(self):
        payload = execute_spec(_cheap_spec())
        assert SPANS_KEY not in payload
        assert CELL_METRICS_KEY not in payload
        assert payload_intact(payload)

    def test_observed_and_unobserved_fingerprints_agree(self):
        """Telemetry lives under volatile keys, so observed runs share
        cache entries with unobserved ones."""
        spec = _cheap_spec()
        unobserved = execute_spec(spec)
        observed = execute_spec(spec, collect=True)
        assert SPANS_KEY in observed
        assert payload_intact(observed)
        assert payload_fingerprint(observed) \
            == payload_fingerprint(unobserved)
        assert observed[INTEGRITY_KEY] == unobserved[INTEGRITY_KEY]

    def test_inactive_span_helper_is_shared_nullcontext(self):
        """With no tracer active the helper allocates nothing: every
        call returns the same reusable null context."""
        assert obs.current_tracer() is None
        assert obs.span("a") is obs.span("b", cat="attack", arg=1)
        assert obs.event("a") is None

    def test_null_observer_wants_nothing(self):
        assert NULL_OBSERVER.wants_cell_spans is False
        assert Observability().wants_cell_spans is True
        # Every hook is a no-op returning None.
        spec = _cheap_spec()
        hooks = RunObserver()
        assert hooks.on_run_start([spec]) is None
        assert hooks.on_cell_start(spec, 0) is None
        assert hooks.on_cell_end(spec, "ok", 1, {}) is None
        assert hooks.on_run_end(None) is None

    def test_default_runner_does_not_collect(self):
        runner = ExperimentRunner()
        assert runner.observer is NULL_OBSERVER
        assert runner._collect is False
        results = runner.run([_cheap_spec()])
        payload = next(iter(results.values()))
        assert SPANS_KEY not in payload


class TestProfileTable:
    def _stats(self, long_name: bool = False) -> RunnerStats:
        platform = "embedded" if not long_name else \
            "a-very-long-platform-name-indeed-yes-really"
        stats = RunnerStats(jobs=2, mode="process-pool", cache_misses=2)
        ok = (platform, "local")
        bad = ("server-desktop", "microarchitectural")
        stats.cell_times[ok] = 0.0123
        stats.cell_instrets[ok] = 3000
        stats.cell_spans[ok] = 0.0150
        stats.outcomes[ok] = CellOutcome("ok")
        stats.cell_spans[bad] = 0.5
        stats.outcomes[bad] = CellOutcome("failed", attempts=3,
                                          error="raised: boom")
        return stats

    @pytest.mark.parametrize("long_name", [False, True])
    def test_columns_align_for_every_row(self, long_name):
        stats = self._stats(long_name)
        lines = stats.profile().splitlines()
        header = lines[1]
        # "wall" is right-aligned in a 9-char field one space after the
        # cell column, so its last character sits at width + 9.
        width = header.index("wall") + len("wall") - 10
        assert header[:4] == "cell"
        for line in lines[2:]:
            # The wall column is exactly 9 wide, right-aligned, starting
            # one space after the (possibly widened) cell column.
            wall = line[width + 1:width + 10]
            assert wall.endswith("ms") or wall == f"{'-':>9}", line
            span = line[width + 11:width + 20]
            assert span.endswith("ms") or span == f"{'-':>9}", line

    def test_failed_cells_and_spans_are_visible(self):
        table = self._stats().profile()
        assert "server-desktop/microarchitectural" in table
        assert "failed(3)" in table
        assert "15.0ms" in table  # the ok cell's span column
        assert "500.0ms" in table  # the failed cell still shows its span

    def test_all_cached_run_has_no_table(self):
        assert "no cells executed" in RunnerStats().profile()

    def test_total_span_is_run_wall_time_not_sum_of_spans(self):
        # Spans overlap: both cells were queued when the run started.
        stats = self._stats()
        stats.wall_time_s = 0.6
        total = stats.profile().splitlines()[-1].split()
        assert total[0] == "total"
        assert total[2] == "600.0ms"  # not 515.0ms, the sum of the spans

    def test_cell_without_instructions_has_no_rate(self):
        stats = self._stats()
        cell = ("embedded", "classical-physical")
        stats.cell_times[cell] = 0.04
        stats.cell_instrets[cell] = 0
        stats.outcomes[cell] = CellOutcome("ok")
        rows = {line.split()[0]: line.split()
                for line in stats.profile().splitlines()[2:]}
        assert rows["embedded/classical-physical"][4] == "-"
        assert rows["embedded/local"][4] == "243,902"
        empty = RunnerStats(cache_misses=1)
        empty.cell_times[cell] = 0.04
        empty.outcomes[cell] = CellOutcome("ok")
        assert empty.profile().splitlines()[-1].split()[-1] == "-"
