"""Differential suite: vectorized Gaussian draws and CPA vs their oracles.

:meth:`XorShiftRNG.gauss_block` is held to bit-identity with ``count``
scalar :meth:`XorShiftRNG.gauss` calls (every float and the final state);
its correctly rounded division is checked against Python's ``int / int``
on the half-ulp ties a plain float cast gets wrong.  :func:`cpa_attack`
and :func:`cpa_recover_key` must recover exactly the key byte the
per-candidate reference loop picks, including on degenerate inputs where
candidates tie exactly and every one of them is re-scored.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.attacks.dpa as dpa
from repro.attacks.dpa import (
    cpa_attack,
    cpa_attack_reference,
    cpa_recover_key,
)
from repro.crypto.rng import (
    _BLOCK_DRAWS,
    _GAUSS_BLOCK,
    XorShiftRNG,
    _unit_interval,
)
from repro.power.diff import SCAConfig, batched_capture
from repro.power.trace import TraceSet
from tests.conftest import AES_KEY2

_M64 = (1 << 64) - 1

_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def _scalar_gauss(seed: int, count: int, mean: float,
                  std: float) -> tuple[list[float], int]:
    rng = XorShiftRNG(seed)
    return [rng.gauss(mean, std) for _ in range(count)], rng._state


class TestGaussBlockMatchesScalar:
    @_SETTINGS
    @given(
        seed=st.one_of(st.sampled_from([0, 1, _M64, 1 << 63]),
                       st.integers(min_value=0, max_value=_M64)),
        count=st.one_of(
            st.sampled_from([0, 1, 2, _GAUSS_BLOCK - 1, _GAUSS_BLOCK,
                             _GAUSS_BLOCK + 1, 3 * _GAUSS_BLOCK + 7]),
            st.integers(min_value=0, max_value=700)),
        mean=st.sampled_from([0.0, -1.25, 3.0]),
        std=st.sampled_from([1.0, 0.5, 1.7, 4.0]),
    )
    def test_floats_and_final_state(self, seed, count, mean, std):
        rng = XorShiftRNG(seed)
        block = rng.gauss_block(count, mean, std)
        expected, state = _scalar_gauss(seed, count, mean, std)
        assert block.dtype == np.float64 and block.shape == (count,)
        assert block.tolist() == expected
        assert rng._state == state

    def test_continues_the_stream(self):
        rng, ref = XorShiftRNG(99), XorShiftRNG(99)
        first = rng.gauss_block(5)
        tail = [rng.next_u64() for _ in range(3)]
        assert first.tolist() == [ref.gauss() for _ in range(5)]
        assert tail == [ref.next_u64() for _ in range(3)]

    def test_many_blocks(self):
        count = 4 * _GAUSS_BLOCK + 3  # more states than one jump block
        assert 12 * count > 4 * _BLOCK_DRAWS
        rng = XorShiftRNG(0xA11CE)
        expected, state = _scalar_gauss(0xA11CE, count, 0.0, 1.0)
        assert rng.gauss_block(count).tolist() == expected
        assert rng._state == state

    def test_zero_count_is_empty_and_leaves_state(self):
        rng = XorShiftRNG(7)
        before = rng._state
        out = rng.gauss_block(0)
        assert out.dtype == np.float64 and out.shape == (0,)
        assert rng._state == before

    def test_negative_count_raises(self):
        rng = XorShiftRNG(7)
        with pytest.raises(ValueError):
            rng.gauss_block(-1)
        assert rng._state == XorShiftRNG(7)._state


def _division_edges() -> list[int]:
    values = [0, 1, 2, (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
              (1 << 54) - 1, 1 << 54, (1 << 64) - (1 << 11),
              (1 << 64) - (1 << 10), (1 << 64) - 2, _M64]
    for shift in range(1, 12):
        half = 1 << (shift - 1)
        for mantissa in ((1 << 52), (1 << 52) + 1, (1 << 53) - 2,
                         (1 << 53) - 1, 0x1B5D3A9C4E2F1):
            tie = (mantissa << shift) | half
            values += [tie - 1, tie, tie + 1]
    return values


class TestUnitIntervalRounding:
    def test_edge_table_matches_int_division(self):
        values = _division_edges()
        got = _unit_interval(np.array(values, dtype=np.uint64))
        assert got.tolist() == [v / _M64 for v in values]

    def test_ties_defeat_a_plain_cast(self):
        # The table really contains values a round-half-even cast misses.
        values = _division_edges()
        naive = (np.array(values, dtype=np.uint64).astype(np.float64)
                 * 2.0 ** -64).tolist()
        assert naive != [v / _M64 for v in values]


class TestSeeding:
    @pytest.mark.parametrize("seed", [1 << 64, 5 << 64, -(1 << 64)])
    def test_multiple_of_two_to_the_64_is_not_degenerate(self, seed):
        # The seed is masked to 64 bits before the zero check, so these
        # seed like 0 (state 1) instead of sticking at state 0.
        rng, ref = XorShiftRNG(seed), XorShiftRNG(1)
        draws = [rng.next_u64() for _ in range(3)]
        assert draws == [ref.next_u64() for _ in range(3)]
        assert 0 not in draws
        assert XorShiftRNG(seed).gauss() != -6.0

    @pytest.mark.parametrize("seed", [0, 1, 12345, _M64, -1, -12345])
    def test_in_range_and_negative_streams_unchanged(self, seed):
        assert XorShiftRNG(seed)._state == ((seed or 1) & _M64)

    def test_import_leaves_numpy_unloaded(self):
        # gauss_block imports numpy on first use, so entries that import
        # this module but never draw Gaussians (the scan) do not pay for
        # importing numpy.
        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import sys, repro.crypto.rng; "
                "sys.exit('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0


_CONFIGS = {
    "unprotected": dict(),
    "masked": dict(masked=True),
    "shuffled": dict(shuffle=True),
    "noisy": dict(noise_std=4.0),
}


class TestCpaMatchesReference:
    @pytest.mark.parametrize("config", sorted(_CONFIGS))
    @pytest.mark.parametrize("seed", range(1, 41))
    def test_recovered_key_equals_oracle(self, seed, config):
        full = batched_capture(SCAConfig(
            key=AES_KEY2, num_traces=300, seed=seed,
            mask_seed=seed ^ 0x5EED, noise_seed=seed ^ 0xA0A0,
            **_CONFIGS[config])).traces
        for count in (30, 120, 300):
            traces = full.subset(count)
            oracle = bytes(cpa_attack_reference(traces, b)[0]
                           for b in range(16))
            assert cpa_recover_key(traces) == oracle

    def test_peaks_close_to_oracle(self):
        traces = batched_capture(SCAConfig(
            key=AES_KEY2, num_traces=200, seed=5)).traces
        for b in (0, 7, 15):
            best, peaks = cpa_attack(traces, b)
            ref_best, ref_peaks = cpa_attack_reference(traces, b)
            assert best == ref_best
            np.testing.assert_allclose(peaks, ref_peaks, rtol=0, atol=1e-13)


def _traceset(samples: np.ndarray, pt_byte: np.ndarray) -> TraceSet:
    n = samples.shape[0]
    pts = np.zeros((n, 16), dtype=np.uint8)
    pts[:, 0] = pt_byte
    return TraceSet.from_arrays(samples, pts, np.zeros((n, 16), np.uint8))


@pytest.fixture
def rescored(monkeypatch) -> list[int]:
    """Candidates :func:`cpa_attack` re-scores with the reference formula."""
    calls: list[int] = []
    reference = dpa._cpa_peak

    def counting(pt, centered, sample_norms, candidate):
        calls.append(int(candidate))
        return reference(pt, centered, sample_norms, candidate)

    monkeypatch.setattr(dpa, "_cpa_peak", counting)
    return calls


class TestCpaDegenerateInputs:
    def _check(self, traces: TraceSet, rescored: list[int]):
        """Compare with the oracle; return both peak vectors and the
        candidates the vectorized scorer re-scored."""
        best, peaks = cpa_attack(traces, 0)
        guarded = sorted(set(rescored))
        ref_best, ref_peaks = cpa_attack_reference(traces, 0)
        assert best == ref_best
        return peaks, ref_peaks, guarded

    def test_single_plaintext_value(self, rescored):
        rng = np.random.default_rng(1)
        traces = _traceset(rng.normal(size=(50, 8)),
                           np.full(50, 0x42, dtype=np.uint8))
        peaks, ref_peaks, guarded = self._check(traces, rescored)
        assert guarded == list(range(256))  # every hypothesis is constant
        assert not peaks.any() and not ref_peaks.any()
        assert cpa_recover_key(traces)[0] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty mean
    def test_no_traces(self, rescored):
        traces = _traceset(np.empty((0, 4)), np.empty(0, dtype=np.uint8))
        peaks, ref_peaks, guarded = self._check(traces, rescored)
        assert guarded == list(range(256))
        assert not peaks.any() and not ref_peaks.any()

    @pytest.mark.parametrize("value", [0.0, 0.1, 3.7])
    def test_constant_samples(self, rescored, value):
        rng = np.random.default_rng(2)
        traces = _traceset(np.full((64, 8), value),
                           rng.integers(0, 256, 64, dtype=np.uint8))
        peaks, ref_peaks, guarded = self._check(traces, rescored)
        assert guarded == list(range(256))  # all peaks are (near) zero
        assert peaks.tolist() == ref_peaks.tolist()

    @pytest.mark.parametrize("distinct", [(0x00, 0xFF), (0x13, 0x37),
                                          (0x01, 0x80, 0xC3)])
    def test_few_distinct_plaintexts_tie(self, rescored, distinct):
        rng = np.random.default_rng(len(distinct))
        pt = rng.choice(np.array(distinct, dtype=np.uint8), size=90)
        samples = rng.normal(size=(90, 6))
        samples[:, 2] += 0.5 * np.array([bin(v).count("1") for v in pt])
        peaks, ref_peaks, guarded = self._check(_traceset(samples, pt),
                                                rescored)
        assert len(guarded) > 1  # tied candidates went through the guard
        assert peaks[guarded].tolist() == ref_peaks[guarded].tolist()
