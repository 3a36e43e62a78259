"""CI bench gate: compare a fresh baseline against the newest committed one.

``record_baseline.py --quick -o current.json`` measures the gated
benchmarks (``record_baseline.GATED_BENCHMARKS``); this script loads
that file, finds the newest committed
``BENCH_*.json`` at the repo root, and fails (exit 1) when any gated
benchmark's mean regressed by more than the threshold (default 25% —
generous because CI runners are noisy shared machines; the local
acceptance bar in EXPERIMENTS.md is 5% on a quiet box).

"Newest" is decided by the ``date`` recorded *inside* each baseline
(file mtime as tiebreak and fallback), not by filename sort: suffixed
names like ``BENCH_2026-08-05b.json`` only sorted after
``BENCH_2026-08-05.json`` by the accident that ``'b' > '.'``, and any
non-date name (``BENCH_zzz.json``) lexicographically outranked every
dated baseline forever.  A current-run file accidentally written at the
repo root matching ``BENCH_*.json`` is excluded from the candidate set,
and gating a file against itself is refused outright — both made the
gate vacuously green.

A committed mean of zero (or garbage parsed as <= 0) is a gate *error*,
not a pass: dividing the regression delta by it was previously short-
circuited to "ok", so a corrupted baseline silently disabled the gate
for that benchmark.

Usage::

    python benchmarks/check_regression.py current.json
    python benchmarks/check_regression.py current.json --threshold 0.10
    python benchmarks/check_regression.py current.json --against BENCH_X.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from record_baseline import GATED_BENCHMARKS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Full pytest node names as recorded in the committed baselines.
_PREFIX = "test_perf_"

#: Gated pairs whose ratio is itself gated: each vectorized bench must
#: stay at least this many times faster than its scalar twin *within
#: the same run* (same machine, same noise), protecting the vectorized
#: engines' speedup claims from silent decay.  The committed baseline
#: documents the full ratios; the floors are deliberately below them to
#: absorb CI jitter.
SPEEDUP_FLOORS: tuple[tuple[str, str, float], ...] = (
    ("cache_sca[scalar]", "cache_sca[batched]", 3.0),
    ("kocher_timing[scalar]", "kocher_timing[batched]", 1.5),
    ("trace_acquisition[scalar]", "trace_acquisition[batched]", 8.0),
    ("spec_scan[reference]", "spec_scan[memoized]", 2.0),
)

#: In-run ratios gated from *above*: the second bench must cost at most
#: ``ceiling`` times the first within the same run.  This is how the
#: evaluation service's overhead is pinned — driving the quick matrix
#: through queue + leases + crash-safe cache publishes may never cost
#: more than 15% over a direct ``ExperimentRunner`` of the same grid.
OVERHEAD_CEILINGS: tuple[tuple[str, str, float], ...] = (
    ("service_overhead[direct]", "service_overhead[service]", 1.15),
)

#: Matrix-scale benchmarks run second-long rounds, so a quick baseline
#: affords only a handful of them and the *mean* inherits whatever CI
#: neighbours were doing during the slowest round.  These are gated on
#: ``min_s`` — the least-disturbed round — instead; ``mean_s`` is still
#: recorded in every baseline for human comparison.
MIN_GATED = frozenset({"service_overhead[direct]",
                       "service_overhead[service]",
                       "spec_scan[reference]",
                       "spec_scan[memoized]"})


def _recorded_stamp(path: Path) -> tuple[str, float, str]:
    """Sort key for baseline recency: (recorded date, mtime, filename).

    The ``date`` field of the ``repro-bench-baseline/1`` schema is an
    ISO date, so string order is chronological; unreadable or dateless
    files sort as empty (oldest) and fall back to mtime.  The filename
    is a *last*-resort tiebreak only — same recorded day, same mtime
    (fresh git checkouts stamp every file alike) — where a ``b`` suffix
    legitimately marks the later recording; it must never outrank a
    genuinely newer recorded date, which was the original bug.
    """
    try:
        date = str(json.loads(path.read_text()).get("date", ""))
    except (OSError, ValueError):
        date = ""
    try:
        mtime = path.stat().st_mtime
    except OSError:
        mtime = 0.0
    return (date, mtime, path.name)


def newest_committed_baseline(root: Path = REPO_ROOT,
                              exclude: Path | None = None) -> Path:
    """Newest ``BENCH_*.json`` by recorded timestamp, never ``exclude``."""
    candidates = [
        path for path in root.glob("BENCH_*.json")
        if exclude is None or path.resolve() != exclude.resolve()]
    if not candidates:
        raise SystemExit("no committed BENCH_*.json baseline found")
    return max(candidates, key=_recorded_stamp)


def _gated_means(baseline: dict) -> dict[str, float]:
    """The gated statistic per benchmark: ``min_s`` for matrix-scale
    entries (see ``MIN_GATED``), ``mean_s`` otherwise.  Baselines from
    before ``min_s`` was recorded fall back to the mean."""
    means: dict[str, float] = {}
    for name, stats in baseline.get("benchmarks", {}).items():
        short = name[len(_PREFIX):] if name.startswith(_PREFIX) else name
        if short not in GATED_BENCHMARKS:
            continue
        if short in MIN_GATED and "min_s" in stats:
            means[short] = float(stats["min_s"])
        else:
            means[short] = float(stats["mean_s"])
    return means


def _provenance(baseline: dict) -> str:
    """Human-readable recording provenance for the gate banner."""
    revision = baseline.get("git_revision", "unknown")
    dirty = baseline.get("git_dirty")
    if dirty:
        return f"{revision}+dirty"
    return str(revision)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path,
                        help="baseline JSON from record_baseline.py "
                             "--quick for this checkout")
    parser.add_argument("--against", type=Path, default=None,
                        help="committed baseline to compare with "
                             "(default: newest BENCH_*.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated relative mean increase "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    against = args.against or newest_committed_baseline(exclude=args.current)
    if against.resolve() == args.current.resolve():
        print("gate error: refusing to compare a baseline against itself: "
              f"{against}", file=sys.stderr)
        return 1
    committed_raw = json.loads(against.read_text())
    current_raw = json.loads(args.current.read_text())
    committed = _gated_means(committed_raw)
    current = _gated_means(current_raw)

    failures: list[str] = []
    print(f"gate: {args.current} [{_provenance(current_raw)}] vs "
          f"{against} [{_provenance(committed_raw)}] "
          f"(threshold +{args.threshold:.0%})")
    for name in GATED_BENCHMARKS:
        if name not in committed:
            print(f"  {name}: absent from committed baseline, skipped")
            continue
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        old, new = committed[name], current[name]
        if old <= 0:
            failures.append(
                f"{name}: committed mean {old!r} is not positive "
                "(corrupt baseline?) — refusing to gate against it")
            continue
        delta = (new - old) / old
        verdict = "FAIL" if delta > args.threshold else "ok"
        print(f"  {name}: {old * 1e3:.3f} ms -> {new * 1e3:.3f} ms "
              f"({delta:+.1%}) {verdict}")
        if delta > args.threshold:
            failures.append(f"{name}: {delta:+.1%} > +{args.threshold:.0%}")
    for slow, fast, floor in SPEEDUP_FLOORS:
        if slow not in current or fast not in current:
            continue
        if current[fast] <= 0:
            failures.append(f"{fast}: non-positive current mean")
            continue
        ratio = current[slow] / current[fast]
        verdict = "FAIL" if ratio < floor else "ok"
        print(f"  {slow} / {fast}: {ratio:.1f}x "
              f"(floor {floor:.1f}x) {verdict}")
        if ratio < floor:
            failures.append(
                f"{fast}: only {ratio:.1f}x faster than {slow}, "
                f"floor is {floor:.1f}x")
    for base, costly, ceiling in OVERHEAD_CEILINGS:
        if base not in current or costly not in current:
            continue
        if current[base] <= 0:
            failures.append(f"{base}: non-positive current mean")
            continue
        ratio = current[costly] / current[base]
        verdict = "FAIL" if ratio > ceiling else "ok"
        print(f"  {costly} / {base}: {ratio:.2f}x "
              f"(ceiling {ceiling:.2f}x) {verdict}")
        if ratio > ceiling:
            failures.append(
                f"{costly}: {ratio:.2f}x the cost of {base}, "
                f"ceiling is {ceiling:.2f}x")
    if failures:
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
