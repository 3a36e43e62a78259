"""Differential and correlation power analysis (paper refs [25, 30]).

Operates on :class:`~repro.power.trace.TraceSet` acquisitions of the
first AES round:

* :func:`dpa_attack` — Kocher/Jaffe/Jun difference of means: partition
  traces by one predicted S-box output bit; the correct key byte produces
  a differential spike.
* :func:`cpa_attack` — Pearson correlation between measured samples and
  the Hamming weight of the predicted S-box output.

Both scan *all* samples and keep the maximum statistic, so they need no
alignment knowledge — which is exactly why the *shuffling* hiding
countermeasure (misaligned samples) degrades them gracefully rather than
being sidestepped, and why masking (statistically independent
intermediates) defeats them outright at first order.
"""

from __future__ import annotations

import numpy as np

from repro.common import accepts_keyword
from repro.crypto.aes import SBOX
from repro.power.trace import TraceSet

_SBOX = np.array(SBOX, dtype=np.int64)
_HW = np.array([bin(x).count("1") for x in range(256)], dtype=np.float64)


def dpa_attack(traces: TraceSet, byte_index: int,
               target_bit: int = 0) -> tuple[int, np.ndarray]:
    """Difference-of-means DPA for one key byte.

    Returns (best key byte, per-candidate peak differential).
    """
    samples = traces.samples
    pt = traces.plaintext_bytes(byte_index)
    peaks = np.zeros(256)
    for candidate in range(256):
        predicted = (_SBOX[pt ^ candidate] >> target_bit) & 1
        ones = predicted == 1
        if not ones.any() or ones.all():
            continue  # degenerate partition: no differential defined
        diff = samples[ones].mean(axis=0) - samples[~ones].mean(axis=0)
        peaks[candidate] = np.abs(diff).max()
    return int(peaks.argmax()), peaks


def cpa_attack(traces: TraceSet,
               byte_index: int) -> tuple[int, np.ndarray]:
    """Correlation power analysis for one key byte.

    Returns (best key byte, per-candidate peak |correlation|).
    """
    samples = traces.samples
    pt = traces.plaintext_bytes(byte_index)
    centered = samples - samples.mean(axis=0)
    sample_norms = np.sqrt((centered ** 2).sum(axis=0))
    sample_norms[sample_norms == 0] = 1.0
    peaks = np.zeros(256)
    for candidate in range(256):
        hyp = _HW[_SBOX[pt ^ candidate]]
        hyp = hyp - hyp.mean()
        norm = np.sqrt((hyp ** 2).sum())
        if norm == 0:
            continue
        corr = hyp @ centered / (norm * sample_norms)
        peaks[candidate] = np.abs(corr).max()
    return int(peaks.argmax()), peaks


def dpa_recover_key(traces: TraceSet) -> bytes:
    """DPA over all 16 key bytes."""
    return bytes(dpa_attack(traces, b)[0] for b in range(16))


def cpa_recover_key(traces: TraceSet) -> bytes:
    """CPA over all 16 key bytes."""
    return bytes(cpa_attack(traces, b)[0] for b in range(16))


def key_recovery_rate(recovered: bytes, true_key: bytes) -> float:
    """Fraction of correct key bytes."""
    return sum(1 for a, b in zip(recovered, true_key) if a == b) / 16


def traces_to_success(acquire, analyse, true_key: bytes,
                      trace_counts: list[int],
                      threshold: float = 1.0,
                      batch: bool = True) -> dict[int, float]:
    """Recovery rate as a function of trace count (the classic SCA curve).

    ``acquire(n)`` returns a TraceSet of ``n`` traces; ``analyse`` is one
    of the ``*_recover_key`` functions.  Acquires once at the maximum and
    re-analyses prefixes, as real evaluations do — ``subset`` hands back
    O(1) read-only views, so the sweep never copies the sample matrix.

    When ``acquire`` accepts a ``batch`` keyword it is forwarded
    (defaulting to the vectorized, bit-identical acquisition path); an
    acquire callable without the knob is invoked unchanged.  Acceptance
    is resolved with :func:`repro.common.accepts_keyword`, which sees
    through ``functools.partial`` chains, ``__wrapped__`` decorators and
    ``**kwargs`` forwarders — a bare ``inspect.signature(...).parameters``
    check silently dropped those wrappers back onto the scalar path.
    """
    if accepts_keyword(acquire, "batch"):
        full = acquire(max(trace_counts), batch=batch)
    else:
        full = acquire(max(trace_counts))
    rates: dict[int, float] = {}
    for count in sorted(trace_counts):
        rates[count] = key_recovery_rate(analyse(full.subset(count)),
                                         true_key)
    return rates
