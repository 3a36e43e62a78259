"""Regression tests for the CI bench gate (``benchmarks/check_regression``).

Three bugs are pinned here, each of which previously made the gate
vacuously green:

* baseline selection used lexicographic filename order, so
  ``BENCH_zzz.json`` (or ``BENCH_2026-08-05b.json`` vs the ``.json`` of
  the same date) outranked genuinely newer baselines — selection must
  follow the ``date`` recorded *inside* the file, with mtime as
  tiebreak/fallback;
* a current-run file at the repo root matching ``BENCH_*.json`` could be
  chosen as its own comparison target — gating a file against itself is
  now refused;
* a committed mean of ``0`` short-circuited ``delta = ... if old > 0
  else 0.0`` to "ok", silently disabling the gate for any benchmark with
  a corrupt committed mean — non-positive committed means are now gate
  errors.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import check_regression  # noqa: E402
from check_regression import (  # noqa: E402
    main,
    newest_committed_baseline,
)
from record_baseline import GATED_BENCHMARKS  # noqa: E402


def _baseline(path: Path, date: str, means: dict[str, float],
              mtime: float | None = None,
              mins: dict[str, float] | None = None,
              **extra) -> Path:
    mins = mins or {}
    benches = {f"test_perf_{name}": {"mean_s": mean, "stddev_s": 0.0,
                                     "min_s": mins.get(name, mean),
                                     "rounds": 3,
                                     "ops_per_s": 1.0 / mean
                                     if mean else 0.0}
               for name, mean in means.items()}
    path.write_text(json.dumps({
        "schema": "repro-bench-baseline/1",
        "date": date,
        "label": "test",
        "benchmarks": benches,
        **extra,
    }))
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return path


#: Healthy means for every gated benchmark: each floor-gated pair's
#: ratio sits comfortably above its floor.
_HEALTHY = dict.fromkeys(GATED_BENCHMARKS, 0.010)
_HEALTHY["cache_sca[scalar]"] = 1.0
_HEALTHY["cache_sca[batched]"] = 0.15
_HEALTHY["kocher_timing[scalar]"] = 0.045
_HEALTHY["kocher_timing[batched]"] = 0.018
_HEALTHY["trace_acquisition[scalar]"] = 0.090
_HEALTHY["trace_acquisition[batched]"] = 0.004
_HEALTHY["spec_scan[reference]"] = 0.19
_HEALTHY["spec_scan[memoized]"] = 0.0013


class TestNewestBaselineSelection:
    def test_recorded_date_beats_lexicographic_filename(self, tmp_path):
        dated = _baseline(tmp_path / "BENCH_2026-08-05.json",
                          "2026-08-05", _HEALTHY)
        _baseline(tmp_path / "BENCH_zzz.json", "2026-01-01", _HEALTHY)
        assert newest_committed_baseline(tmp_path) == dated

    def test_suffix_tiebreak_uses_mtime_not_suffix(self, tmp_path):
        # Same recorded date; the *older file* gets the greater filename.
        newer = _baseline(tmp_path / "BENCH_2026-08-05.json",
                          "2026-08-05", _HEALTHY, mtime=2_000_000_000)
        _baseline(tmp_path / "BENCH_2026-08-05b.json",
                  "2026-08-05", _HEALTHY, mtime=1_000_000_000)
        assert newest_committed_baseline(tmp_path) == newer

    def test_dateless_file_sorts_oldest(self, tmp_path):
        dated = _baseline(tmp_path / "BENCH_2026-01-01.json",
                          "2026-01-01", _HEALTHY)
        (tmp_path / "BENCH_garbage.json").write_text("not json at all")
        assert newest_committed_baseline(tmp_path) == dated

    def test_current_run_file_is_excluded(self, tmp_path):
        committed = _baseline(tmp_path / "BENCH_2026-08-01.json",
                              "2026-08-01", _HEALTHY)
        current = _baseline(tmp_path / "BENCH_2026-08-08.json",
                            "2026-08-08", _HEALTHY)
        assert newest_committed_baseline(
            tmp_path, exclude=current) == committed

    def test_no_candidates_is_fatal(self, tmp_path):
        with pytest.raises(SystemExit):
            newest_committed_baseline(tmp_path)


class TestGateVerdicts:
    def test_refuses_to_gate_a_file_against_itself(self, tmp_path, capsys):
        current = _baseline(tmp_path / "BENCH_current.json",
                            "2026-08-08", _HEALTHY)
        assert main([str(current), "--against", str(current)]) == 1
        assert "against itself" in capsys.readouterr().err

    def test_nonpositive_committed_mean_is_gate_error(self, tmp_path,
                                                      capsys):
        corrupt = dict(_HEALTHY)
        corrupt["core_load_loop"] = 0.0
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            corrupt)
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            _HEALTHY)
        assert main([str(current), "--against", str(against)]) == 1
        err = capsys.readouterr().err
        assert "not positive" in err
        assert "core_load_loop" in err

    def test_clean_run_passes(self, tmp_path):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            _HEALTHY)
        assert main([str(current), "--against", str(against)]) == 0

    def test_regression_fails(self, tmp_path, capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        slow = dict(_HEALTHY)
        slow["cache_hierarchy_access"] = _HEALTHY[
            "cache_hierarchy_access"] * 2
        current = _baseline(tmp_path / "current.json", "2026-08-08", slow)
        assert main([str(current), "--against", str(against)]) == 1
        assert "cache_hierarchy_access" in capsys.readouterr().err

    def test_speedup_floor_gates_batched_attack_ratio(self, tmp_path,
                                                      capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        decayed = dict(_HEALTHY)
        decayed["cache_sca[batched]"] = 0.5  # 2.0x < 3.0x floor
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            decayed)
        assert main([str(current), "--against", str(against)]) == 1
        assert "cache_sca[batched]" in capsys.readouterr().err

    def test_speedup_floor_gates_memoized_scan_ratio(self, tmp_path,
                                                     capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        decayed = dict(_HEALTHY)
        decayed["spec_scan[memoized]"] = 0.1  # 1.9x < 2.0x floor
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            decayed)
        assert main([str(current), "--against", str(against)]) == 1
        err = capsys.readouterr().err
        assert "spec_scan[memoized]" in err
        assert "floor" in err

    def test_speedup_floor_tolerates_missing_pair(self, tmp_path):
        """A quick run without the pair (e.g. -k filter) must not crash
        or fail the floor check."""
        partial = {name: mean for name, mean in _HEALTHY.items()
                   if not name.startswith("spec_scan")}
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            partial)
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            partial)
        assert main([str(current), "--against", str(against)]) == 0

    def test_floors_reference_gated_names(self):
        for slow, fast, floor in check_regression.SPEEDUP_FLOORS:
            assert slow in GATED_BENCHMARKS
            assert fast in GATED_BENCHMARKS
            assert floor > 1.0

    def test_min_gated_names_are_gated(self):
        assert check_regression.MIN_GATED <= set(GATED_BENCHMARKS)


class TestMinGating:
    """Matrix-scale benches are gated on ``min_s``: their rounds are
    seconds long and few, so one noisy CI neighbour can double the mean
    of an unchanged build — the least-disturbed round is the signal."""

    def test_noisy_mean_with_flat_min_passes(self, tmp_path):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        noisy = dict(_HEALTHY)
        noisy["spec_scan[memoized]"] = _HEALTHY[
            "spec_scan[memoized]"] * 2  # mean doubled...
        current = _baseline(
            tmp_path / "current.json", "2026-08-08", noisy,
            mins={"spec_scan[memoized]":
                  _HEALTHY["spec_scan[memoized]"]})  # ...min flat
        assert main([str(current), "--against", str(against)]) == 0

    def test_regressed_min_fails(self, tmp_path, capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        slow = dict(_HEALTHY)
        slow["spec_scan[memoized]"] = _HEALTHY[
            "spec_scan[memoized]"] * 2  # min regressed with the mean
        current = _baseline(tmp_path / "current.json", "2026-08-08", slow)
        assert main([str(current), "--against", str(against)]) == 1
        assert "spec_scan[memoized]" in capsys.readouterr().err

    def test_mean_gated_bench_still_gates_on_mean(self, tmp_path, capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY)
        slow = dict(_HEALTHY)
        slow["core_load_loop"] = _HEALTHY["core_load_loop"] * 2
        current = _baseline(
            tmp_path / "current.json", "2026-08-08", slow,
            mins={"core_load_loop": _HEALTHY["core_load_loop"]})
        assert main([str(current), "--against", str(against)]) == 1
        assert "core_load_loop" in capsys.readouterr().err


class TestProvenance:
    def test_gate_banner_names_revisions_and_dirtiness(self, tmp_path,
                                                       capsys):
        against = _baseline(tmp_path / "BENCH_old.json", "2026-08-01",
                            _HEALTHY, git_revision="abc1234",
                            git_dirty=False)
        current = _baseline(tmp_path / "current.json", "2026-08-08",
                            _HEALTHY, git_revision="def5678",
                            git_dirty=True)
        assert main([str(current), "--against", str(against)]) == 0
        banner = capsys.readouterr().out.splitlines()[0]
        assert "abc1234" in banner
        assert "def5678+dirty" in banner

    def test_quick_rounds_assertion_rejects_thin_baselines(self):
        import record_baseline
        baseline = {"benchmarks": {
            "test_perf_core_load_loop": {"rounds": 1}}}
        with pytest.raises(SystemExit, match="under-measured"):
            record_baseline.assert_quick_rounds(baseline)

    def test_quick_rounds_assertion_accepts_measured_baselines(self):
        import record_baseline
        baseline = {"benchmarks": {
            "test_perf_core_load_loop": {"rounds": 3}}}
        record_baseline.assert_quick_rounds(baseline)
