"""Counter-based RNG streams.

Every stochastic routine in this package draws from a Philox generator whose
key is derived by hashing ``(seed, *path)``, where the path is a sequence of
ints and strings (experiment id, replicate index, ...).  Streams for distinct
paths are statistically independent, so replicates can run in any order or in
parallel without changing results.

The key reaches Philox through a key-only seed sequence (`_KeySeed`) rather
than ``Philox(key=...)``: the ``key`` form first seeds a throwaway
`numpy.random.SeedSequence` from OS entropy and then discards it, which is
most of the cost of a stream.  Philox asks its seed sequence for exactly two
64-bit words and uses them as the key with a zero counter, so both forms
give the same bit-generator state and every stream is unchanged bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stream_key(seed: int, *path: int | str) -> np.ndarray:
    """128-bit Philox key for ``(seed, *path)``, stable across platforms."""
    for part in path:
        if not isinstance(part, (int, str)):
            raise TypeError(f"stream path parts must be int or str, got {type(part)!r}")
    msg = repr((int(seed),) + tuple(path)).encode("utf-8")
    digest = hashlib.sha256(msg).digest()
    return np.frombuffer(digest[:16], dtype="<u8")


class _KeySeed(ISeedSequence):
    """Seed sequence whose only state is a Philox key."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a key-only seed sequence yields two 64-bit words")
        return self.key


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent generator keyed by ``(seed, *path)``.

    Equal, state and draws, to
    ``Generator(Philox(key=stream_key(seed, *path)))``; see the module
    docstring for why the key goes through `_KeySeed`.
    """
    return np.random.Generator(np.random.Philox(_KeySeed(stream_key(seed, *path))))
