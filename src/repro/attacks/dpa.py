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

import functools

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


@functools.cache
def _hadamard16() -> np.ndarray:
    """Walsh-Hadamard matrix of order 16, ``(-1) ** popcount(i & j)``.

    The order-256 matrix is its Kronecker square, so :func:`_walsh` needs
    no 256 x 256 array.  Like :func:`_h_spectra`, built on first use:
    numpy work at import time raises the resident memory of every
    command that imports this module, CPA or not.
    """
    return np.array([[(-1.0) ** bin(i & j).count("1") for j in range(16)]
                     for i in range(16)])


def _walsh(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along axis 0 of a
    ``(256, k)`` array: one order-16 transform per nibble of the index.
    Applying it twice multiplies by 256."""
    hadamard = _hadamard16()
    k = x.shape[1]
    high = (hadamard @ x.reshape(16, 16 * k)).reshape(16, 16, k)
    return (hadamard @ high).reshape(256, k)


@functools.cache
def _h_spectra() -> np.ndarray:
    """Walsh spectra of ``h**2`` and ``h``, where ``h(v) = HW(S(v))``.

    The CPA hypothesis of key candidate ``c`` for plaintext byte ``v`` is
    ``h(v ^ c)``, so a sum over plaintext values weighted by hypotheses
    is an XOR-convolution with ``h``, which the Walsh transform
    diagonalises: ``sum_v f(v) h(v ^ c) = _walsh(_walsh(f) *
    _walsh(h))[c] / 256``.  Built on first use, not at import: the first
    BLAS product of a process allocates its work buffer (about 0.4 MB
    resident), which commands that never run CPA should not pay.
    """
    return _walsh(np.column_stack((_HW[_SBOX] ** 2, _HW[_SBOX])))

#: :func:`cpa_attack` re-scores every candidate whose vectorized peak is
#: within this of the best one with the reference formula.  The two peak
#: computations differ by rounding alone — about ``N * 2**-52`` for ``N``
#: traces, since each peak is a normalised correlation in ``[0, 1]`` — so
#: the margin is orders of magnitude wider than any discrepancy.
_RESCORE_MARGIN = 1e-9


def _centered(traces: TraceSet) -> tuple[np.ndarray, np.ndarray]:
    """Column-centered samples and their column norms, zero norms
    replaced by 1 (a constant sample then correlates as 0)."""
    samples = traces.samples
    centered = samples - samples.mean(axis=0)
    sample_norms = np.sqrt((centered ** 2).sum(axis=0))
    sample_norms[sample_norms == 0] = 1.0
    return centered, sample_norms


def _cpa_peak(pt: np.ndarray, centered: np.ndarray,
              sample_norms: np.ndarray, candidate: int) -> float:
    """Peak |Pearson correlation| of one key candidate: the reference
    formula the vectorized scorer is checked against and re-scores with."""
    hyp = _HW[_SBOX[pt ^ candidate]]
    hyp = hyp - hyp.mean()
    norm = np.sqrt((hyp ** 2).sum())
    if norm == 0:
        return 0.0
    corr = hyp @ centered / (norm * sample_norms)
    return np.abs(corr).max()


def _cpa_scores(pt: np.ndarray, centered: np.ndarray,
                sample_norms: np.ndarray) -> tuple[int, np.ndarray]:
    """All 256 candidates of one key byte at once; see :func:`cpa_attack`."""
    n, width = centered.shape
    counts = np.bincount(pt, minlength=256).astype(np.float64)
    cells = (pt[:, None] * width + np.arange(width)).ravel()
    by_value = np.bincount(cells, weights=centered.ravel(),
                           minlength=256 * width).reshape(256, width)
    # XOR-convolve h**2 and h with the plaintext histogram, and h with
    # every column of by_value, in two transforms.  Hypothesis sums and
    # sums of squares are integers, exact in float64 through the +-1
    # transforms, so n * sum((h - mean)**2) = n*S2 - S1**2 is exact too
    # (for n below about 10**7), and exactly 0 for a constant hypothesis.
    h_spectra = _h_spectra()
    spectra = _walsh(np.column_stack((counts, by_value)))
    conv = _walsh(np.column_stack((spectra[:, :1] * h_spectra,
                                   spectra[:, 1:] * h_spectra[:, 1:]))) / 256
    sum2, sum1 = conv[:, 0], conv[:, 1]
    divisor = max(n, 1)  # no traces: every norm is 0, every peak 0
    norms = np.sqrt((n * sum2 - sum1 * sum1) / divisor)
    norms[norms == 0] = np.inf  # no correlation defined: peak 0
    mean = sum1 / divisor
    numerators = conv[:, 2:] - np.outer(mean, by_value.sum(axis=0))
    peaks = np.abs(numerators / (norms[:, None] * sample_norms)).max(axis=1)
    for candidate in np.flatnonzero(peaks >= peaks.max() - _RESCORE_MARGIN):
        peaks[candidate] = _cpa_peak(pt, centered, sample_norms, candidate)
    return int(peaks.argmax()), peaks


def cpa_attack(traces: TraceSet,
               byte_index: int) -> tuple[int, np.ndarray]:
    """Correlation power analysis for one key byte.

    Returns (best key byte, per-candidate peak |correlation|).

    All 256 candidates are scored at once.  A candidate's hypothesis
    depends on a trace only through its plaintext byte, so the centered
    traces are first summed per plaintext value (256 x S), and each
    candidate's hypothesis mean and norm come from the plaintext
    histogram.  The correlation numerators, ``H @ by_value`` with
    ``H[c, v] = HW(S(v ^ c))``, are an XOR-convolution, computed with two
    Walsh-Hadamard transforms of order 256 (:func:`_walsh`): no
    ``256 x N`` temporary and no ``256 x 256`` matrix.  The peaks agree
    with the per-candidate formula (:func:`_cpa_peak`) to within about
    1e-13.  The argmax is exact: every candidate within
    ``_RESCORE_MARGIN`` of the best peak is re-scored with that formula
    first, so the recovered byte, first-index tie-break included, is the
    one the per-candidate loop (:func:`cpa_attack_reference`) picks.
    """
    return _cpa_scores(traces.plaintext_bytes(byte_index),
                       *_centered(traces))


def cpa_attack_reference(traces: TraceSet,
                         byte_index: int) -> tuple[int, np.ndarray]:
    """:func:`cpa_attack` as a per-candidate loop of :func:`_cpa_peak`:
    the oracle the vectorized scorer is tested against."""
    pt = traces.plaintext_bytes(byte_index)
    centered, sample_norms = _centered(traces)
    peaks = np.zeros(256)
    for candidate in range(256):
        peaks[candidate] = _cpa_peak(pt, centered, sample_norms, candidate)
    return int(peaks.argmax()), peaks


def dpa_recover_key(traces: TraceSet) -> bytes:
    """DPA over all 16 key bytes."""
    return bytes(dpa_attack(traces, b)[0] for b in range(16))


def cpa_recover_key(traces: TraceSet) -> bytes:
    """CPA over all 16 key bytes (the samples are centered once)."""
    centered, sample_norms = _centered(traces)
    return bytes(
        _cpa_scores(traces.plaintext_bytes(b), centered, sample_norms)[0]
        for b in range(16))


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
