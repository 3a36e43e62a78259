"""Cold end-to-end benchmark of the three commands users wait on.

Run from the root of the repository::

    python3 e2ebench/run.py --workload figure1-cold --seed 1 \\
        --seconds 30 --trace 0

Each workload is a closed loop with one client: invocations run one
after another, each in a fresh Python process (``invoke.py``) with a
private cache and queue directory, until the invocations have taken
``--seconds`` of wall time.  The bytecode is compiled first, as an
installed package would have it; that is not measured.  Invocation
``i`` gets a seed derived from ``--seed`` and ``i``.  After each
invocation its outputs are checked (not timed); a failed check counts
its cells as failed.

Times are scaled to a reference host speed, measured with a fixed loop
before each invocation (see ``calibration_loop_s``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics: self time and counts per layer, per traced
invocation, and the tracing overhead (traced minus untraced mean run
time).  The last line of standard output is the JSON result; the full
record, with the git revision, dirty flag, Python version and CPU
count, goes to ``.e2ebench_out/``.  See ``NOTES.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import benchstats
import benchtrace

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figure1-cold", "scan-cold", "service-campaign")

#: sha256 of the canonical JSON of the full-grid scan report.  The scan
#: takes no seed, so every invocation must reproduce it byte for byte.
SCAN_REPORT_SHA256 = \
    "641ff6562f0056a61e5917ebe9888e456367bf31f49ecc3526d9350dd587c42f"

#: Figure-1 rows -> the matrix cell category that produces them.
ROW_CATEGORY = {
    "remote attacks": "remote",
    "local attacks": "local",
    "classical physical attacks": "classical-physical",
    "microarchitectural attacks": "microarchitectural",
    "performance": "workload",
    "energy budget": "workload",
}

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 90.0
#: No invocation starts after this much wall time, so a run ends well
#: inside its 180 s limit even when the machine is slow.
RUN_DEADLINE_S = 140.0


#: The host's speed drifts by up to a factor of two, in phases of
#: seconds to minutes, on the shared VMs this runs on.  Before each
#: invocation the parent times a fixed pure-Python loop, and reported
#: times are scaled by REFERENCE_LOOP_S / (the run's median loop time):
#: they are seconds on a host that runs the loop in REFERENCE_LOOP_S.
#: The loop runs no code of the program, so a change to the program
#: cannot move it.  The record in .e2ebench_out keeps unscaled values.
CALIBRATION_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.006


def calibration_loop_s() -> float:
    """Median of five timings of the calibration loop."""
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return benchstats.median(timings)


def derive_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def environment(root: Path) -> dict:
    """Provenance recorded with every result."""
    revision, dirty = None, None
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=root, text=True,
                                  capture_output=True, check=True).stdout
        try:
            revision = git("rev-parse", "HEAD").strip()
            dirty = bool(git("status", "--porcelain",
                             "--untracked-files=no").strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_revision": revision, "git_dirty": dirty,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


# -- one invocation -----------------------------------------------------------


class InvocationError(RuntimeError):
    pass


def invoke(root: Path, inv_dir: Path, workload: str, seed: int,
           traced: bool) -> dict:
    """Run one invocation; returns its result plus the parent's spawn and
    exit timestamps (``time.perf_counter()``)."""
    inv_dir.mkdir(parents=True)
    (inv_dir / "tmp").mkdir()
    src = str(root / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])),
               PYTHONHASHSEED=str(seed),
               REPRO_CACHE_DIR=str(inv_dir / "cache"),
               REPRO_QUEUE_DIR=str(inv_dir / "queue"),
               TMPDIR=str(inv_dir / "tmp"),
               # One core per invocation: numpy's BLAS would otherwise
               # start a spinning worker thread per CPU.
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "invoke.py"), workload, str(seed),
           str(inv_dir)] + (["--trace"] if traced else [])
    with open(inv_dir / "stdout.txt", "wb") as out, \
            open(inv_dir / "stderr.txt", "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        # A blocking wait sees the exit at once; Popen.wait(timeout=...)
        # polls with sleeps of up to 50 ms, which would quantize run_s.
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            killer.join()
        exit_t = time.perf_counter()
    if exit_t - spawn >= INVOCATION_TIMEOUT_S:
        raise InvocationError(f"{workload} seed {seed}: killed after "
                              f"{INVOCATION_TIMEOUT_S:.0f} s")
    if code != 0:
        tail = (inv_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise InvocationError(f"{workload} seed {seed}: exit {code}\n{tail}")
    result = json.loads((inv_dir / "result.json").read_text())
    if not spawn <= result["t_start"] <= result["t_done"] <= exit_t:
        raise InvocationError("child timestamps fall outside spawn..exit: "
                              "the clocks do not agree")
    result.update(seed=seed, traced=traced, spawn=spawn, exit=exit_t,
                  run_s=exit_t - spawn, setup_s=result["t_ready"] - spawn)
    return result


# -- output checks ------------------------------------------------------------


def check_figure1(result: dict, inv_dir: Path) -> dict:
    failed = set(result["failed_cells"])
    failed.update(f"{platform}/{ROW_CATEGORY[row]}"
                  for row, platform in result["not_evaluated"])
    return {"attempted": result["attempted"], "failed": len(failed),
            "cell_times": [s for _, s in result["cells"]],
            "agreement": result["agreement"],
            "notes": result["mismatches"]}


def check_scan(result: dict, inv_dir: Path) -> dict:
    data = (inv_dir / "report.json").read_bytes()
    doc = json.loads(data)
    failed = set(result["failed_cells"])
    failed.update(f"{row['config']}/spec-scan" for row in doc["rows"]
                  if row["leaked"] != row["expected"])
    notes = list(doc["violations"])
    if hashlib.sha256(data).hexdigest() != SCAN_REPORT_SHA256:
        notes.append("report digest differs from the pinned digest")
        failed.update(cell for cell, _ in result["cells"])
    ok_rows = sum(1 for row in doc["rows"]
                  if row["leaked"] == row["expected"])
    return {"attempted": result["attempted"], "failed": len(failed),
            "cell_times": [s for _, s in result["cells"]],
            "agreement": ok_rows / len(doc["rows"]), "notes": notes}


def check_service(result: dict, inv_dir: Path) -> dict:
    """Every job complete, every payload intact and equal to a direct
    ``execute_spec`` of its spec; remote/local cells scored against the
    published Figure 1."""
    from repro.attacks.base import AttackCategory
    from repro.common import PlatformClass
    from repro.core import CellResult
    from repro.core.figure1 import PAPER_EXPECTED
    from repro.runner.engine import (
        INTEGRITY_KEY,
        cache_key_for,
        execute_spec,
        payload_intact,
    )
    from repro.runner.serialize import attack_result_from_dict
    from repro.service import JobQueue

    queue = JobQueue(inv_dir / "queue")
    cache = queue.default_cache()
    specs = {}
    for job_id in queue.job_ids():
        for spec in queue.load(job_id).cells():
            specs[spec] = None
    failed, times, notes = 0, [], []
    matches = scored = 0
    for spec in specs:
        key = cache_key_for(spec)
        payload = cache.get(key)
        if (queue.failure(key) is not None or payload is None
                or not payload_intact(payload)
                or payload[INTEGRITY_KEY]
                != execute_spec(spec)[INTEGRITY_KEY]):
            failed += 1
            notes.append(f"{spec.platform}/{spec.category} seed "
                         f"{spec.seed}: missing, failed or not reproduced")
            continue
        times.append(payload["cell_wall_time_s"])
        row = {"remote": "remote attacks",
               "local": "local attacks"}[spec.category]
        cell = CellResult(PlatformClass(spec.platform),
                          AttackCategory(spec.category),
                          [attack_result_from_dict(d)
                           for d in payload["attacks"]])
        scored += 1
        matches += cell.importance \
            == PAPER_EXPECTED[(row, PlatformClass(spec.platform))]
    return {"attempted": len(specs), "failed": failed, "cell_times": times,
            "agreement": matches / scored if scored else 0.0,
            "notes": notes}


CHECKS = {"figure1-cold": check_figure1, "scan-cold": check_scan,
          "service-campaign": check_service}


# -- metrics ------------------------------------------------------------------


def end_to_end(invocations: list[dict], attempted: int,
               failed: int) -> tuple[dict, str]:
    """End-to-end metric values from untraced invocations and the run's
    cell counts, and a summary line stating sample counts."""
    cells = [t for inv in invocations for t in inv["cell_times"]]
    q_used, tail = benchstats.tail_percentile(cells, 90, 10)
    values = {
        "run_s": benchstats.median([i["run_s"] for i in invocations]),
        "setup_s": benchstats.median([i["setup_s"] for i in invocations]),
        "cells_per_s": benchstats.median(
            [(i["attempted"] - i["failed"]) / (i["run_s"] - i["setup_s"])
             for i in invocations]),
        "cell_s_p50": benchstats.median(cells),
        "cell_s_p90": tail,
        "peak_rss_mb": benchstats.median(
            [i["rss_kb"] / 1024 for i in invocations]),
        "ok_ratio": 1.0 - benchstats.failed_ratio(failed, attempted),
        "paper_agreement": benchstats.mean(
            [i["agreement"] for i in invocations]),
    }
    summary = (f"{len(invocations)} invocations, {len(cells)} cell times "
               f"(cell_s_p90 is p{q_used:g}), {failed}/{attempted} cells "
               f"failed")
    return values, summary


SELF_TIME_METRICS = {
    "import.deferred_s": "import.deferred",
    "runner.run_s": "runner.run",
    "result_cache.get_s": "result_cache.get",
    "result_cache.put_s": "result_cache.put",
    "soc.build_s": "soc.build",
    "memory.clear_range_s": "memory.clear_range",
    "cpu.run_s": "cpu.run",
    "cache.access_s": "cache.access",
    "cache.flush_s": "cache.flush",
    "crypto.aes_s": "crypto.aes",
    "crypto.modexp_s": "crypto.modexp",
    "rng.gauss_s": "rng.gauss",
    "power.capture_s": "power.capture",
    "analysis.cpa_s": "analysis.cpa",
    "spec.explore_s": "spec.explore",
    "spec.record_s": "spec.record",
    "spec.memo_lookup_s": "spec.memo_lookup",
    "service.submit_s": "service.submit",
    "service.lease_acquire_s": "service.lease_acquire",
    "service.lease_release_s": "service.lease_release",
    "process.self_s": "process",
    "entry.self_s": "entry",
}

CALL_COUNT_METRICS = {
    "result_cache.gets": "result_cache.get",
    "result_cache.puts": "result_cache.put",
    "soc.builds": "soc.build",
    "memory.clear_ranges": "memory.clear_range",
    "cache.accesses": "cache.access",
    "cache.flushes": "cache.flush",
    "crypto.aes_blocks": "crypto.aes",
    "crypto.modexp_calls": "crypto.modexp",
    "rng.gauss_calls": "rng.gauss",
    "spec.explorations": "spec.explore",
    "spec.records": "spec.record",
    "spec.memo_lookups": "spec.memo_lookup",
}

COUNTER_METRICS = ("runner.cells", "runner.failed", "runner.retries",
                   "result_cache.hits", "cpu.instret", "power.traces",
                   "spec.memo_hits", "service.leases")

WORKER_METRICS = {"service.lease_losses": "lease_losses",
                  "service.cells_computed": "cells_computed",
                  "service.cells_already_done": "cells_already_done"}

#: Layer of each span name, for the printed table.
LAYER_OF = [("startup", "startup imports"),
            ("import.deferred", "deferred imports"),
            ("process", "process (interpreter)"),
            ("entry", "entry point (unwrapped code)"),
            ("runner.", "repro.runner"), ("result_cache.",
                                          "repro.runner.cache"),
            ("cell.", "repro.runner.engine"), ("soc.", "repro.cpu.soc"),
            ("memory.", "repro.memory"), ("cpu.", "repro.cpu"),
            ("cache.", "repro.cache"), ("crypto.", "repro.crypto"),
            ("rng.", "repro.crypto"), ("power.", "repro.power"),
            ("attack.", "repro.attacks"), ("analysis.", "repro.attacks"),
            ("spec.", "repro.spec"), ("service.", "repro.service")]


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYER_OF:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(span_name)


class SpanTotals:
    """Self time, inclusive time and call count per span name, summed
    over traced invocations."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.worker = defaultdict(int)
        self.invocations = 0

    def add(self, inv: dict, inv_dir: Path) -> None:
        names, starts, ends, parents, counters = \
            benchtrace.load_spans(inv_dir)
        # The process span, as the parent saw it, is the root.
        names = ["process"] + names
        starts = [inv["spawn"]] + starts
        ends = [inv["exit"]] + ends
        parents = [-1] + [p + 1 for p in parents]
        for name, start, end, own in zip(
                names, starts, ends,
                benchstats.self_times(starts, ends, parents)):
            self.self_s[name] += own
            self.incl_s[name] += end - start
            self.calls[name] += 1
        for name, value in counters.items():
            self.counters[name] += value
        for name, value in inv.get("worker", {}).items():
            self.worker[name] += value
        self.invocations += 1


def per_layer(totals: SpanTotals, traced_run_s: float,
              untraced_run_s: float) -> dict:
    n = totals.invocations
    values = {metric: totals.self_s.get(span, 0.0) / n
              for metric, span in SELF_TIME_METRICS.items()}
    values["startup.import_s"] = totals.incl_s["startup"] / n
    values.update({metric: totals.calls.get(span, 0) / n
                   for metric, span in CALL_COUNT_METRICS.items()})
    values.update({metric: totals.counters.get(metric, 0) / n
                   for metric in COUNTER_METRICS})
    values.update({metric: totals.worker.get(field, 0) / n
                   for metric, field in WORKER_METRICS.items()})
    for category in benchtrace.CELL_CATEGORIES:
        span = f"cell.{category}"
        values[f"{span}.s"] = totals.incl_s.get(span, 0.0) / n
        values[f"{span}.n"] = totals.calls.get(span, 0) / n
    values["cell.self_s"] = sum(
        own for name, own in totals.self_s.items()
        if name.startswith("cell.")) / n
    runs = 0
    for attack in benchtrace.ATTACKS:
        span = f"attack.{attack}"
        values[f"{span}.s"] = totals.self_s.get(span, 0.0) / n
        values[f"{span}.runs"] = totals.calls.get(span, 0) / n
        runs += totals.calls.get(span, 0)
    values["attack.success_ratio"] = (
        totals.counters.get("attack.successes", 0) / runs if runs else 0.0)
    values["trace.run_s"] = traced_run_s
    values["trace.untraced_run_s"] = untraced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    return values


def layer_table(totals: SpanTotals, traced_run_s: float,
                untraced_run_s: float) -> str:
    """Self time per layer and per span, share of the traced run time,
    and call counts, per traced invocation."""
    n = totals.invocations
    layers = defaultdict(float)
    for name, own in totals.self_s.items():
        layers[layer_of(name)] += own / n
    lines = [f"{'layer':<30}{'self s':>10}{'share':>8}",
             "-" * 48]
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<30}{own:>10.4f}{own / traced_run_s:>8.1%}")
    total = sum(layers.values())
    lines += ["-" * 48,
              f"{'sum of self times':<30}{total:>10.4f}"
              f"{total / traced_run_s:>8.1%}",
              f"traced run_s {traced_run_s:.4f}, untraced run_s "
              f"{untraced_run_s:.4f}, tracing overhead "
              f"{traced_run_s - untraced_run_s:.4f} s",
              "",
              f"{'span':<36}{'self s':>10}{'incl s':>10}{'calls':>12}",
              "-" * 68]
    for name in sorted(totals.self_s, key=lambda s: -totals.self_s[s]):
        lines.append(f"{name:<36}{totals.self_s[name] / n:>10.4f}"
                     f"{totals.incl_s[name] / n:>10.4f}"
                     f"{totals.calls[name] / n:>12.1f}")
    return "\n".join(lines)


# -- the run ------------------------------------------------------------------


def report(values: dict, declared: list[dict], kind: str,
           scale: float) -> dict:
    """The metrics BENCHMARK.json declares, times multiplied and rates
    divided by the host-speed ``scale``."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise SystemExit(f"{kind} metrics computed {sorted(values)} do not "
                         f"match BENCHMARK.json {sorted(names)}")
    metrics = {}
    for m in declared:
        value = values[m["name"]]
        if m["unit"] == "s":
            value *= scale
        elif m["unit"].endswith("/s"):
            value /= scale
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    definition = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {root / 'src'}: run from the root "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    print(f"env: {json.dumps(env, sort_keys=True)}")

    work = root / ".e2ebench_tmp" / f"run-{os.getpid()}"
    out_dir = root / ".e2ebench_out"
    out_dir.mkdir(exist_ok=True)
    check = CHECKS[args.workload]
    started = time.perf_counter()
    untraced, traced, totals = [], [], SpanTotals()
    loop_s = []
    attempted = failed = 0
    notes: list[str] = []
    # Bytecode, as an installed package would have it; this is the
    # build step, and it only stats the files once they are compiled.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    try:
        measured = 0.0
        index = 0
        last_attempted = 1
        while (measured < args.seconds
               or len(untraced) < MIN_INVOCATIONS
               or (args.trace and len(traced) < MIN_INVOCATIONS)):
            if time.perf_counter() - started > RUN_DEADLINE_S:
                notes.append("run deadline reached before --seconds")
                break
            is_traced = bool(args.trace) and index % 2 == 1
            seed = derive_seed(args.seed, args.workload, index)
            inv_dir = work / f"inv-{index}"
            index += 1
            loop_s.append(calibration_loop_s())
            spawned = time.perf_counter()
            try:
                inv = invoke(root, inv_dir, args.workload, seed, is_traced)
            except InvocationError as exc:
                # A crashed invocation has no cells to show: count as
                # many attempted and failed as the last one ran.
                notes.append(str(exc).splitlines()[0])
                attempted += last_attempted
                failed += last_attempted
                measured += time.perf_counter() - spawned
                shutil.rmtree(inv_dir, ignore_errors=True)
                continue
            inv.update(check(inv, inv_dir))
            last_attempted = inv["attempted"]
            attempted += inv["attempted"]
            failed += inv["failed"]
            notes.extend(inv.pop("notes"))
            measured += inv["run_s"]
            if is_traced:
                totals.add(inv, inv_dir)
                for name in (benchtrace.SPANS_META, benchtrace.SPANS_DATA):
                    shutil.copy(inv_dir / name,
                                out_dir / f"{args.workload}.{name}")
                traced.append(inv)
            else:
                untraced.append(inv)
            shutil.rmtree(inv_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".e2ebench_tmp").rmdir()
        except OSError:
            pass

    if not untraced or (args.trace and not traced):
        print("benchmark aborted: no invocation completed", file=sys.stderr)
        return 1
    for note in sorted(set(notes)):
        print(f"note: {note}")
    values, summary = end_to_end(untraced, attempted, failed)
    host_loop_s = benchstats.median(loop_s)
    scale = REFERENCE_LOOP_S / host_loop_s
    print(f"{args.workload}: {summary}")
    print(f"host: calibration loop {host_loop_s * 1e3:.2f} ms, times "
          f"scaled by {scale:.4f} (unscaled run_s {values['run_s']:.4f} s)")
    if args.trace:
        traced_run_s = benchstats.mean([i["run_s"] for i in traced])
        untraced_run_s = benchstats.mean([i["run_s"] for i in untraced])
        print("per traced invocation, unscaled:")
        print(layer_table(totals, traced_run_s, untraced_run_s))
        unscaled = per_layer(totals, traced_run_s, untraced_run_s)
        metrics = report(unscaled, definition["per_layer"], "per-layer",
                         scale)
    else:
        unscaled = values
        metrics = report(values, definition["end_to_end"], "end-to-end",
                         scale)
        for name, metric in metrics.items():
            print(f"{name:<18}{metric['value']:>14.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  notes=sorted(set(notes)), unscaled=unscaled,
                  calibration_loop_s=loop_s, scale=scale,
                  invocations=[{k: inv[k] for k in
                                ("seed", "traced", "run_s", "setup_s",
                                 "attempted", "failed", "agreement",
                                 "rss_kb")}
                               for inv in untraced + traced])
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
