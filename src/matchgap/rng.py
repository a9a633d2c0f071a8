"""Counter-based random bits.

Every draw is a pure function of (seed, stream, position): stream `i`
position `j` always yields the same 64 bits regardless of evaluation
order, worker count, or platform.  Streams are derived with the
SplitMix64 finalizer, whose avalanche properties are more than adequate
for Monte Carlo work and which vectorizes cleanly over numpy uint64
arrays (unlike the stateful bit generators in numpy.random).

Position `j` of stream `i` hashes ``stream_key(seed, i) + j * GAMMA``; its
uniform is ``(bits >> 11) * 2**-53``.  `BernoulliBlocks` decides
``uniform < x`` without forming the float: ``x * 2**53`` is exact in
float64 and at most ``2**53``, so ``k * 2**-53 < x`` holds exactly when
the integer ``k = bits >> 11`` is below ``ceil(x * 2**53)``.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_KEYMUL = np.uint64(0xD1342543DE82EF95)

_INV_2_53 = 2.0 ** -53


def _finalize(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 avalanche of uint64 array `z` after the gamma step, in
    place; `tmp` is scratch of the same shape."""
    with np.errstate(over="ignore"):
        for shift, mul in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            np.bitwise_xor(z, tmp, out=z)
            np.multiply(z, mul, out=z)
        np.right_shift(z, np.uint64(31), out=tmp)
        np.bitwise_xor(z, tmp, out=z)


def mix64(z) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64."""
    z = np.array(z, dtype=np.uint64)  # a copy, mixed in place
    with np.errstate(over="ignore"):
        np.add(z, _GAMMA, out=z)
    _finalize(z, np.empty_like(z))
    return z[()]  # a scalar stays a scalar


def stream_key(seed: int, stream) -> np.ndarray:
    """Derive the 64-bit key of one stream (or an array of streams)."""
    with np.errstate(over="ignore"):
        s = np.uint64(seed) * _KEYMUL
        return mix64(s + mix64(stream))


def uniforms(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) at positions start .. start+count-1 of a stream."""
    key = stream_key(seed, np.uint64(stream))
    with np.errstate(over="ignore"):
        pos = np.arange(start, start + count, dtype=np.uint64)
        bits = mix64(key + pos * _GAMMA)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_block(seed: int, streams, count: int) -> np.ndarray:
    """Matrix of uniforms: row k holds positions 0..count-1 of streams[k]."""
    keys = stream_key(seed, np.asarray(streams, dtype=np.uint64))
    with np.errstate(over="ignore"):
        pos = np.arange(count, dtype=np.uint64) * _GAMMA
        bits = mix64(keys[:, None] + pos[None, :])
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


class BernoulliBlocks:
    """Bernoulli draws for rows of streams given by their keys, hashed in place.

    Row k of ``draw(keys)`` holds ``uniform(i, j) < x[j]`` for every
    position j, where ``keys[k] == stream_key(seed, i)``, decided on
    integer thresholds.  The caller derives the keys (`stream_key` works
    element by element, so keys derived once for a whole run give the
    same rows as keys derived per block).  The hashing runs in scratch
    buffers allocated once for up to `max_rows` rows, and each draw
    returns a view of one output buffer that the next draw overwrites.
    """

    def __init__(self, x, max_rows: int):
        x = np.asarray(x, dtype=np.float64)
        # (j + 1) * GAMMA: the position step and mix64's gamma step in one
        with np.errstate(over="ignore"):
            self._offsets = np.arange(1, x.size + 1, dtype=np.uint64) * _GAMMA
        self._thresholds = np.ceil(x * 2.0 ** 53).astype(np.uint64)
        self._z = np.empty((max_rows, x.size), dtype=np.uint64)
        self._tmp = np.empty_like(self._z)
        self._out = np.empty((max_rows, x.size), dtype=bool)

    def draw(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), len(x)) bool view for the streams of uint64 `keys`."""
        rows = len(keys)
        z, tmp = self._z[:rows], self._tmp[:rows]
        with np.errstate(over="ignore"):
            np.add(keys[:, None], self._offsets, out=z)
        _finalize(z, tmp)
        np.right_shift(z, np.uint64(11), out=z)
        return np.less(z, self._thresholds, out=self._out[:rows])
