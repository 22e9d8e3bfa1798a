"""Counter-based RNG streams.

Every stochastic routine in this package draws from a Philox generator whose
key is derived by hashing ``(seed, *path)``, where the path is a sequence of
ints and strings (experiment id, replicate index, ...).  Streams for distinct
paths are statistically independent, so replicates can run in any order or in
parallel without changing results.

A Philox stream is fully defined by its key and its counter, and every stream
here starts at counter zero.  So a stream is built from a key-only seed
sequence (`_KeySeed`) and a constant zero counter array rather than
``Philox(key=...)``.  The ``key`` form first seeds a throwaway
`numpy.random.SeedSequence` from OS entropy and then discards it, and a
counter left at its default 0 is converted to an array in Python on every
call.  Philox asks its seed sequence for exactly two 64-bit words and uses
them as the key, and it copies the counter it is given, so both forms give
the same bit-generator state and every stream is unchanged bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_KEY_DTYPE = np.dtype("<u8")

# shared by every stream: Philox copies it into its own state, and it is
# read-only so that no caller can change the start of later streams
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def stream_key(seed: int, *path: int | str) -> np.ndarray:
    """128-bit Philox key for ``(seed, *path)``, stable across platforms.

    Path parts are ints or strings.  Bools are rejected: ``True == 1``, yet
    they would hash as ``"True"`` and ``"1"`` and give different streams.
    """
    return _KeySeed(seed, path).key


class _KeySeed(ISeedSequence):
    """Seed sequence whose only state is the Philox key of ``(seed, *path)``.

    The key is hashed here, not in `stream_key`, so that `stream` makes one
    Python call before Philox.  An exact-type test passes the common parts
    before the slower ``isinstance`` checks.
    """

    def __init__(self, seed: int, path: tuple) -> None:
        for part in path:
            if type(part) is not int and type(part) is not str and (
                isinstance(part, bool) or not isinstance(part, (int, str))
            ):
                raise TypeError(
                    f"stream path parts must be int or str, got {type(part)!r}"
                )
        msg = repr((int(seed),) + path).encode()  # UTF-8
        self.key = np.frombuffer(hashlib.sha256(msg).digest(), _KEY_DTYPE, 2)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a key-only seed sequence yields two 64-bit words")
        return self.key


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent generator keyed by ``(seed, *path)``.

    Equal, state and draws, to
    ``Generator(Philox(key=stream_key(seed, *path)))``; see the module
    docstring for why the key goes through `_KeySeed` and the counter is a
    shared zero array.
    """
    return np.random.Generator(
        np.random.Philox(_KeySeed(seed, path), counter=_ZERO_COUNTER)
    )
