"""Leakage models mapping intermediate values to analogue samples."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.crypto.rng import XorShiftRNG


def hamming_weight(value: int) -> int:
    """Number of set bits."""
    return bin(value).count("1")


_HW_TABLE = np.array([hamming_weight(x) for x in range(256)],
                     dtype=np.float64)


class LeakageModel(Protocol):
    """Maps a processed value to one side-channel sample."""

    def leak(self, value: int) -> float:
        """Analogue sample for processing ``value``."""


class HammingWeightModel:
    """``scale * HW(v) + N(0, noise_std)`` — the CMOS power workhorse.

    ``scale`` and ``noise_std`` set the signal-to-noise ratio; the DPA
    bench sweeps ``noise_std`` to show trace-count requirements growing
    with noise (the "hiding" countermeasure in its amplitude form).
    """

    def __init__(self, scale: float = 1.0, noise_std: float = 0.5,
                 rng: XorShiftRNG | None = None) -> None:
        self.scale = scale
        self.noise_std = noise_std
        self.rng = rng or XorShiftRNG(0xA11CE)

    def leak(self, value: int) -> float:
        sample = self.scale * hamming_weight(value)
        if self.noise_std > 0:
            sample += self.rng.gauss(0.0, self.noise_std)
        return sample

    def leak_block(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`leak` over a uint8 array of any shape.

        Noise draws consume the RNG in C order of ``values`` — the order
        the scalar hook loop visits them — so the stream and every float
        (same multiply/add sequence per sample) are bit-identical.
        """
        samples = self.scale * _HW_TABLE[values]
        if self.noise_std > 0:
            samples += self.rng.gauss_block(
                values.size, 0.0, self.noise_std).reshape(values.shape)
        return samples


class HammingDistanceModel:
    """``scale * HW(v ^ previous) + noise`` — register-update leakage.

    Models a bus/register whose power draw tracks toggled bits.  Keeps the
    previous value internally; call :meth:`reset` between traces.
    """

    def __init__(self, scale: float = 1.0, noise_std: float = 0.5,
                 rng: XorShiftRNG | None = None) -> None:
        self.scale = scale
        self.noise_std = noise_std
        self.rng = rng or XorShiftRNG(0xB0B)
        self._previous = 0

    def reset(self, value: int = 0) -> None:
        self._previous = value

    def leak(self, value: int) -> float:
        sample = self.scale * hamming_weight(value ^ self._previous)
        self._previous = value
        if self.noise_std > 0:
            sample += self.rng.gauss(0.0, self.noise_std)
        return sample

    def leak_block(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`leak`; the toggle chain threads through the
        block in C order, continuing from (and updating) the model's
        internal previous value."""
        flat = values.reshape(-1)
        if not flat.size:
            return np.zeros(values.shape, dtype=np.float64)
        prev = np.empty_like(flat)
        prev[0] = self._previous
        prev[1:] = flat[:-1]
        samples = self.scale * _HW_TABLE[flat ^ prev]
        self._previous = int(flat[-1])
        if self.noise_std > 0:
            samples += self.rng.gauss_block(flat.size, 0.0, self.noise_std)
        return samples.reshape(values.shape)


class IdentityModel:
    """Noise-free value leakage — the oracle used in sanity tests."""

    def leak(self, value: int) -> float:
        return float(value)

    def leak_block(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`leak`."""
        return values.astype(np.float64)
