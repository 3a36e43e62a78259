"""Span recording for traced benchmark invocations.

The program's own files are not touched: :func:`install` wraps the
public entry of each layer of the ``repro`` stack from outside, through
an import hook that patches each defining module the moment it finishes
executing.  A name that another module later takes with ``from module
import name`` (``suites.py`` does so for ``cpa_recover_key`` and
``capture_aes_traces``) is therefore already the wrapper, and methods
are wrapped on their classes, so ``SoC`` instances built from the
``SOC_FACTORIES`` dict are covered too.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once by :meth:`Recorder.write` when the invocation ends;
:func:`load_spans` reads them back.  All times are
``time.perf_counter()``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so spans line up with the timestamps the parent
process takes around the child.
"""

from __future__ import annotations

import array
import functools
import importlib.abc
import importlib.machinery
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

SPANS_META = "spans.json"
SPANS_DATA = "spans.bin"

#: Attack classes whose ``run()`` is a span, by span suffix: the attacks
#: the Figure-1 suites execute.
ATTACKS = {
    "code-injection": ("repro.attacks.software", "CodeInjectionAttack"),
    "kernel-memory-probe": ("repro.attacks.software",
                            "KernelMemoryProbeAttack"),
    "dma": ("repro.attacks.software", "DMAAttack"),
    "spectre-v1": ("repro.attacks.spectre", "SpectreV1Attack"),
    "meltdown": ("repro.attacks.meltdown", "MeltdownAttack"),
    "flush-reload": ("repro.attacks.cache_sca", "FlushReloadAttack"),
    "bellcore-rsa": ("repro.attacks.fault_attacks", "BellcoreRSAAttack"),
    "kocher-timing": ("repro.attacks.timing", "KocherTimingAttack"),
}

#: Categories a cell span can carry (``cell.<category>``).
CELL_CATEGORIES = ("remote", "local", "microarchitectural",
                   "classical-physical", "workload", "spec-scan")


class Recorder:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Span name for executing a module body; the caller switches it
        #: to ``import.deferred`` once start-up is over.
        self.import_span = "startup.import"

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1])
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def write(self, directory: str | Path) -> None:
        directory = Path(directory)
        meta = {"names": self.names, "count": len(self.starts),
                "counters": dict(self.counters)}
        (directory / SPANS_META).write_text(json.dumps(meta))
        with open(directory / SPANS_DATA, "wb") as fh:
            for column in (self.starts, self.ends, self.parents,
                           self.name_ids):
                column.tofile(fh)


def load_spans(directory: str | Path) -> tuple[list[str], list[float],
                                               list[float], list[int],
                                               dict]:
    """``(names, starts, ends, parents, counters)`` of a span dump, with
    ``names[i]`` the name of span ``i``."""
    directory = Path(directory)
    meta = json.loads((directory / SPANS_META).read_text())
    count = meta["count"]
    columns = [array.array(code) for code in "ddqi"]
    with open(directory / SPANS_DATA, "rb") as fh:
        for column in columns:
            column.fromfile(fh, count)
    starts, ends, parents, name_ids = columns
    names = [meta["names"][i] for i in name_ids]
    return names, list(starts), list(ends), list(parents), meta["counters"]


# -- wrapping -----------------------------------------------------------------


def _wrap(rec: Recorder, fn, name, pre=None, post=None):
    """``fn`` recorded as a span; ``name`` is a string or a function of
    the call's arguments.  ``pre(args)`` runs before the span opens and
    its result reaches ``post(counters, args, kwargs, result, token)``,
    which runs after a successful return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = pre(args) if pre is not None else None
        index = rec.open(name if isinstance(name, str)
                         else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if post is not None:
            post(rec.counters, args, kwargs, result, token)
        return result

    return wrapper


def _patch(rec: Recorder, module, qualname: str, name, pre=None,
           post=None) -> None:
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    setattr(owner, attr, _wrap(rec, getattr(owner, attr), name, pre, post))


def _tally(metric: str, when):
    def post(counters, args, kwargs, result, token):
        if when(result):
            counters[metric] += 1
    return post


def _runner_post(counters, args, kwargs, result, token):
    stats = args[0].stats
    counters["runner.cells"] += stats.cells_total
    counters["runner.failed"] += stats.cells_failed
    counters["runner.retries"] += stats.retries_total


def _cell_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"cell.{spec.category}"


def _instret_before(args):
    return args[0].instret


def _instret_post(counters, args, kwargs, result, token):
    counters["cpu.instret"] += args[0].instret - token


def _traces_post(counters, args, kwargs, result, token):
    counters["power.traces"] += (args[1] if len(args) > 1
                                 else kwargs["num_traces"])


def _layer_table() -> dict[str, list[tuple]]:
    """Module name -> ``(qualname, span name, pre, post)`` to wrap."""
    table = {
        "repro.runner.engine": [
            ("ExperimentRunner.run", "runner.run", None, _runner_post),
            ("execute_spec", _cell_name, None, None)],
        "repro.runner.cache": [
            ("ResultCache.get", "result_cache.get", None,
             _tally("result_cache.hits", lambda r: r is not None)),
            ("ResultCache.put", "result_cache.put", None, None)],
        "repro.cpu.soc": [("SoC.__init__", "soc.build", None, None)],
        "repro.memory.phys": [
            ("PhysicalMemory.clear_range", "memory.clear_range", None,
             None)],
        "repro.cpu.core": [
            ("Core.run", "cpu.run", _instret_before, _instret_post)],
        "repro.cache.hierarchy": [
            ("CacheHierarchy.access", "cache.access", None, None),
            ("CacheHierarchy.flush_line", "cache.flush", None, None)],
        # Each class with its own block cipher; ConstantTimeAES defers
        # to AES128's through super() and so is counted there.
        "repro.crypto.aes": [
            (f"{cls}.encrypt_block", "crypto.aes", None, None)
            for cls in ("AES128", "TTableAES", "MaskedAES")],
        "repro.crypto.modexp": [
            ("modexp_square_multiply", "crypto.modexp", None, None)],
        "repro.crypto.rng": [
            ("XorShiftRNG.gauss_block", "rng.gauss", None, None)],
        "repro.power.instrument": [
            ("capture_aes_traces", "power.capture", None, _traces_post)],
        "repro.attacks.dpa": [
            ("cpa_recover_key", "analysis.cpa", None, None)],
        "repro.spec.explorer": [
            ("SpeculationExplorer.run", "spec.explore", None, None)],
        "repro.spec.memo": [
            ("record_exploration", "spec.record", None, None),
            ("ExplorationMemo.lookup", "spec.memo_lookup", None,
             _tally("spec.memo_hits", lambda r: r is not None))],
        "repro.service.queue": [
            ("JobQueue.submit", "service.submit", None, None)],
        "repro.service.lease": [
            ("try_acquire", "service.lease_acquire", None,
             _tally("service.leases", lambda r: r is not None)),
            ("Lease.release", "service.lease_release", None, None)],
    }
    for attack, (module, cls) in ATTACKS.items():
        table.setdefault(module, []).append(
            (f"{cls}.run", f"attack.{attack}", None,
             _tally("attack.successes", lambda r: bool(r.success))))
    return table


class _WrapOnLoad(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules with the normal path finder, records the
    execution of each module body as a span named
    :attr:`Recorder.import_span`, and wraps the module's layer entries
    right after its body has run."""

    def __init__(self, rec: Recorder, table: dict) -> None:
        self.rec = rec
        self.table = table

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        entries = self.table.get(fullname, ())
        rec = self.rec

        def exec_and_wrap(module):
            with rec.span(rec.import_span):
                exec_module(module)
            for entry in entries:
                _patch(rec, module, *entry)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install() -> Recorder:
    """Start recording: every layer module imported from now on is
    wrapped.  Call before the first ``repro`` import."""
    if any(name == "repro" or name.startswith("repro.")
           for name in sys.modules):
        raise RuntimeError("tracing must be installed before repro is "
                           "imported")
    rec = Recorder()
    sys.meta_path.insert(0, _WrapOnLoad(rec, _layer_table()))
    return rec
