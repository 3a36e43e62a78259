"""One cold invocation of a benchmark workload, in a process of its own.

Usage, from the root of the repository with ``src`` on ``PYTHONPATH``::

    python3 e2ebench/invoke.py WORKLOAD SEED WORKDIR [--trace]

The invocation imports the public entry point the CLI verb uses, calls
it on its default path, and writes ``WORKDIR/result.json``: its own
timestamps (``time.perf_counter()``), the cells it ran with their wall
times, and what the output checks need.  Everything the program writes
goes under ``WORKDIR``.  With ``--trace`` the layer spans are recorded
(see ``benchtrace.py``) and dumped to ``WORKDIR`` at the end.

Untraced, nothing but the standard library is imported before the
entry point, so the process pays only what a user of the CLI pays.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

T_START = time.perf_counter()

#: Jobs per service campaign, and every how many jobs a sub-grid of the
#: last job is submitted again, so its cells are already done when the
#: worker reaches them.
CAMPAIGN_JOBS = 40
RESUBMIT_EVERY = 4


def campaign_seeds(seed: int) -> list[int]:
    """The service campaign's job seeds for one invocation seed."""
    return [seed * CAMPAIGN_JOBS + k for k in range(CAMPAIGN_JOBS)]


def _cell_times(stats) -> list[list]:
    return [[f"{platform}/{category}", seconds]
            for (platform, category), seconds in stats.cell_times.items()]


def _failed_cells(stats) -> list[str]:
    return [f"{platform}/{category}"
            for (platform, category), outcome in stats.outcomes.items()
            if not outcome.ok]


def figure1():
    """``python -m repro figure1 --no-cache``: the quick 15-cell matrix
    on a serial runner with no result cache, then the rendered grid."""
    from repro.core import EvaluationMatrix, generate_figure1
    from repro.runner import ExperimentRunner

    def run(seed, workdir):
        runner = ExperimentRunner()
        figure = generate_figure1(EvaluationMatrix(quick=True, seed=seed,
                                                   runner=runner))
        return runner, figure, figure.render()

    def summarize(out):
        runner, figure, rendered = out
        return {
            "attempted": runner.stats.cells_total,
            "cells": _cell_times(runner.stats),
            "failed_cells": _failed_cells(runner.stats),
            "not_evaluated": [[row, platform.value]
                              for row, platform in figure.not_evaluated()],
            "agreement": figure.agreement_with_paper(),
            "mismatches": [f"{row}/{platform.value}: {got.name} "
                           f"(paper {want.name})"
                           for row, platform, got, want
                           in figure.mismatches() if got is not None],
            "rendered_lines": len(rendered.splitlines()),
        }

    return run, summarize


def scan():
    """``python -m repro scan --full --no-cache``: 11 configs x 13
    gadgets through a serial memoized runner, report written as JSON.
    The scan takes no seed."""
    from repro.runner import ExperimentRunner
    from repro.spec import run_scan

    def run(seed, workdir):
        runner = ExperimentRunner(memo=True)
        report = run_scan(quick=False, runner=runner)
        with open(os.path.join(workdir, "report.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_json())
        return runner, report

    def summarize(out):
        runner, report = out
        return {
            "attempted": runner.stats.cells_total,
            "cells": _cell_times(runner.stats),
            "failed_cells": _failed_cells(runner.stats),
            "rows": len(report.rows),
            "rows_ok": sum(1 for row in report.rows if row.ok),
        }

    return run, summarize


def service():
    """``repro submit`` of a seeded campaign of small jobs plus
    overlapping sub-grid re-submissions, then one in-process
    ``repro worker`` draining the queue."""
    from repro.service import JobQueue, JobSpec, ServiceWorker

    def run(seed, workdir):
        queue = JobQueue(os.path.join(workdir, "queue"))
        for k, job_seed in enumerate(campaign_seeds(seed)):
            job = JobSpec.matrix(seed=job_seed).scoped(
                categories=("remote", "local"))
            queue.submit(job)
            if k % RESUBMIT_EVERY == 0:
                queue.submit(job.scoped(categories=("remote",)))
        return ServiceWorker(queue).run_until_drained()

    def summarize(stats):
        return {"worker": {"cells_computed": stats.cells_computed,
                           "cells_already_done": stats.cells_already_done,
                           "cells_failed": stats.cells_failed,
                           "lease_losses": stats.lease_losses,
                           "passes": stats.passes}}

    return run, summarize


WORKLOADS = {"figure1-cold": figure1, "scan-cold": scan,
             "service-campaign": service}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[1], int(argv[2]), argv[3]
    rec = None
    if "--trace" in argv[4:]:
        import benchtrace
        rec = benchtrace.install()
    span = rec.span if rec is not None else (lambda name: nullcontext())

    with span("startup"):
        run, summarize = WORKLOADS[workload]()
    t_ready = time.perf_counter()
    if rec is not None:
        rec.import_span = "import.deferred"
    with span("entry"):
        out = run(seed, workdir)
    t_done = time.perf_counter()

    result = summarize(out)
    result.update(
        t_start=T_START, t_ready=t_ready, t_done=t_done,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    if rec is not None:
        rec.write(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
