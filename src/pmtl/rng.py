"""Deterministic random streams built on the splitmix64 output function.

The generator is counter-based: raw 64-bit word number ``i`` of a stream is

    out(i) = mix64(key + (i + 1) * GOLDEN   mod 2**64)
    key    = mix64(seed)

where ``mix64`` is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

and ``GOLDEN = 0x9E3779B97F4A7C15`` (2**64 / golden ratio). All arithmetic
is modulo 2**64. The raw integer sequence is exactly reproducible from the
seed on any platform; no process-global or library-default generator state
is involved. Because each word depends only on (key, i), blocks of draws
vectorize cleanly over numpy uint64 arrays.

Floating-point derivations (uniforms, Box-Muller normals) are deterministic
given the platform's libm; the underlying integer stream is bit-identical
everywhere.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_TWO_PI = 2.0 * np.pi
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (mod 2**64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
    return z


def derive_subseed(seed: int, index: int) -> int:
    """Mix a base seed with a run index into an independent sub-seed.

    Defined as ``mix64(mix64(seed) + (index + 1) * GOLDEN)``; used by the
    sweep harness to give repeated runs of one cell distinct, reproducible
    streams.
    """
    if index < 0:
        raise ValueError(f"run index must be >= 0, got {index}")
    return mix64((mix64(seed) + ((index + 1) * GOLDEN)) & MASK64)


class RngStream:
    """A self-contained random stream identified by a 64-bit seed.

    The stream holds only a key and a draw counter; drawing ``n`` words
    advances the counter by ``n``. Two streams with the same seed produce
    identical sequences regardless of how draws are grouped into blocks.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self._key = mix64(self.seed)
        self._counter = 0

    # -- raw words ---------------------------------------------------------

    def next_u64(self) -> int:
        """Next raw word, computed on Python ints: the scalar reference for
        the vectorised ``u64``."""
        self._counter += 1
        return mix64((self._key + self._counter * GOLDEN) & MASK64)

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw words as a uint64 array."""
        if n < 0:
            raise ValueError(f"cannot draw {n} words")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self._key) + idx * np.uint64(GOLDEN)
        return _mix64_array(z)

    # -- derived draws -----------------------------------------------------

    def uniform(self, n: int) -> np.ndarray:
        """Uniform float64 in [0, 1): top 53 bits of a raw word / 2**53."""
        return ((self.u64(n) >> np.uint64(11)).astype(np.float64)) * _INV_2_53

    def normal(self, n: int) -> np.ndarray:
        """Standard normal draws via Box-Muller (cosine branch only).

        Each normal consumes two raw words; the first uniform is shifted
        into (0, 1] so the log is always finite.
        """
        u1 = ((self.u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = ((self.u64(n) >> np.uint64(11)).astype(np.float64)) * _INV_2_53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n raw words.

        Stable sort makes the (practically impossible) key collision case
        deterministic too.
        """
        return np.argsort(self.u64(n), kind="stable")
