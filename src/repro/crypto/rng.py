"""Deterministic seeded RNG used throughout the simulation.

Experiments must be reproducible, so everything that needs randomness
(masks, nonces, key generation, noise, glitch timing) draws from an
explicitly seeded :class:`XorShiftRNG` rather than global state.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_M64 = (1 << 64) - 1
_MUL = 0x2545F4914F6CDD1D

#: Gaussian samples per :meth:`XorShiftRNG.gauss_block` work block; each
#: sample consumes 12 draws, so one block is 3,072 states (24 KiB).
_GAUSS_BLOCK = 256
_BLOCK_DRAWS = 12 * _GAUSS_BLOCK


def _step(x: int) -> int:
    """One xorshift64 state update (without the output multiply)."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _M64
    x ^= x >> 27
    return x


def _byte_table(images: np.ndarray) -> np.ndarray:
    """Per-byte lookup table of the GF(2)-linear map with basis ``images``.

    ``images[i]`` is the map applied to ``1 << i``; row ``b`` of the
    ``(8, 256)`` result holds the map of every value of byte ``b``, so the
    map of a word is the XOR of its eight byte rows.
    """
    import numpy as np

    cols = images.reshape(8, 8)
    table = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ cols[:, k:k + 1]
    return table


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the linear map held in ``table`` to every state in ``states``."""
    octets = states.astype("<u8", copy=False).view("u1").reshape(-1, 8)
    out = table[0][octets[:, 0]]
    for b in range(1, 8):
        out ^= table[b][octets[:, b]]
    return out


@functools.cache
def _jump_tables() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Byte tables of the state update applied ``2**j`` times for every
    ``2**j <= _BLOCK_DRAWS``, and applied ``_BLOCK_DRAWS`` times.  Built on
    first use, once per process (13 tables of 16 KiB)."""
    import numpy as np

    images = np.array([_step(1 << i) for i in range(64)], dtype=np.uint64)
    doubling = []
    for _ in range(_BLOCK_DRAWS.bit_length()):
        doubling.append(_byte_table(images))
        images = _jump(doubling[-1], images)
    # Jump by the block length: compose the jumps of its set bits.
    images = np.array([1 << i for i in range(64)], dtype=np.uint64)
    for j, table in enumerate(doubling):
        if _BLOCK_DRAWS >> j & 1:
            images = _jump(table, images)
    return tuple(doubling), _byte_table(images)


def _unit_interval(draws: np.ndarray) -> np.ndarray:
    """``draws / (2**64 - 1)`` for a uint64 array, correctly rounded.

    For ``0 < v < 2**64 - 1`` the quotient is ``(v + e) * 2**-64`` with
    ``e = v / (2**64 - 1)`` strictly inside ``(0, 1)``, so it rounds to
    ``v`` rounded half-*up* to 53 significant bits, times ``2**-64``
    (below ``2**53``, ``e`` is also under half an ulp of ``v``, so ``v``
    stays exact); the quotient itself can never be a tie.  The uint64 ->
    float64 cast rounds half to even, so ties are broken upward first:
    below ``2**53`` every value is exact; in ``[2**53, 2**54)`` the only
    dropped bit is bit 0 and an odd value is a tie, so it is bumped to the
    even neighbour above; from ``2**54`` on at least two bits are dropped
    and setting bit 0 lifts an exact tie just above half without moving
    any other value across it.  ``0`` and ``2**64 - 1`` map to 0.0 and 1.0.
    """
    import numpy as np

    v = draws + (draws & ((draws >> 53) == 1))
    v |= (draws >> 54) != 0
    return v.astype(np.float64) * 2.0 ** -64


class XorShiftRNG:
    """xorshift64* generator — fast, seedable, and stdlib-independent."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self._state = (seed & _M64) or 1

    def next_u64(self) -> int:
        """Next 64-bit value."""
        x = self._state
        x ^= (x >> 12) & _M64
        x = (x ^ (x << 25)) & _M64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_byte(self) -> int:
        return self.next_u64() & 0xFF

    def bytes(self, n: int) -> bytes:
        """``n`` pseudo-random bytes."""
        out = bytearray()
        while len(out) < n:
            out.extend(self.next_u64().to_bytes(8, "little"))
        return bytes(out[:n])

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian sample via the sum of 12 uniforms (Irwin–Hall)."""
        total = sum(self.next_u64() / _M64 for _ in range(12)) - 6.0
        return mean + std * total

    def u64_block(self, count: int) -> list[int]:
        """``count`` consecutive :meth:`next_u64` values as one block.

        Bit-identical to calling :meth:`next_u64` ``count`` times — the
        state update is inlined into a local-variable loop so batched
        consumers (the vectorized power instrument) can pre-draw a whole
        capture's stream without per-call overhead.
        """
        x = self._state
        mul = 0x2545F4914F6CDD1D
        out = [0] * count
        for i in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _M64
            x ^= x >> 27
            out[i] = (x * mul) & _M64
        self._state = x
        return out

    def gauss_block(self, count: int, mean: float = 0.0,
                    std: float = 1.0) -> np.ndarray:
        """``count`` consecutive :meth:`gauss` samples as a float64 array.

        Bit-identical to ``count`` scalar :meth:`gauss` calls, floats and
        final state alike, but computed in numpy (imported here, on first
        use, so importing this module stays numpy-free):

        * **States.**  The xorshift64 update is linear over GF(2), so
          applying it ``k`` times is one lookup per state byte in a
          precomputed jump table (:func:`_jump_tables`).  The first block
          of states is filled by doubling (each filled prefix jumped by
          its own length); every later block is the previous one jumped
          by the block length.  The output multiply wraps in uint64
          exactly as the masked int product does.
        * **Division.**  :func:`_unit_interval` reproduces the correctly
          rounded int-by-int ``/ (2**64 - 1)``; a plain float cast would
          differ on half-ulp ties.
        * **Summation.**  The 12 uniforms of a sample are added one at a
          time in draw order, as the scalar sum does; no pairwise
          ``np.sum``.

        Work proceeds in blocks of ``_GAUSS_BLOCK`` samples, so temporary
        memory stays fixed whatever ``count`` is.  ``count == 0`` returns
        an empty array and leaves the state untouched.
        """
        import numpy as np

        if count < 0:
            raise ValueError("count must be non-negative")
        out = np.empty(count, dtype=np.float64)
        if not count:
            return out
        doubling, block_jump = _jump_tables()
        states = np.empty(min(12 * count, _BLOCK_DRAWS), dtype=np.uint64)
        states[0] = _step(self._state)
        filled = 1
        for table in doubling:  # ``table`` jumps by ``filled`` states
            if filled == states.size:
                break
            take = min(filled, states.size - filled)
            states[filled:filled + take] = _jump(table, states[:take])
            filled += take
        mul = np.uint64(_MUL)
        for start in range(0, count, _GAUSS_BLOCK):
            n = min(_GAUSS_BLOCK, count - start)
            if start:
                states = _jump(block_jump, states[:12 * n])
            terms = _unit_interval(states[:12 * n] * mul).reshape(n, 12)
            total = terms[:, 0].copy()
            for k in range(1, 12):
                total += terms[:, k]
            out[start:start + n] = mean + std * (total - 6.0)
        self._state = int(states[12 * n - 1])
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def odd_integer(self, bits: int) -> int:
        """Random odd integer with the top bit set (prime candidates)."""
        if bits < 2:
            raise ValueError("need at least 2 bits")
        value = int.from_bytes(self.bytes((bits + 7) // 8), "little")
        value &= (1 << bits) - 1
        value |= (1 << (bits - 1)) | 1
        return value
