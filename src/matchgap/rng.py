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
the integer ``k = bits >> 11`` is below ``T = ceil(x * 2**53)``.

It decides most draws before the last mix step.  Let z3 be the state after
the second multiply, so ``bits = z3 ^ (z3 >> 31)``.  As ``z3 >> 31 < 2**33``,
``bits >> 33 == z3 >> 33``; and ``bits >> 11 < T`` means ``bits <= L - 1``
with ``L = T * 2**11``, which needs ``z3 >> 33 <= (L - 1) >> 33``, that is
``z3 <= (L - 1) | (2**33 - 1)``.  One compare against that cut picks the
candidates, a share of about x of the draws, and only they take the last
step and the exact test.  At T = 0 the cut is 0 (L - 1 would wrap to all
ones); at T = 2**53, L - 1 wraps to all ones, the right cut.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_KEYMUL = np.uint64(0xD1342543DE82EF95)

_INV_2_53 = 2.0 ** -53


def _multiply_rounds(z: np.ndarray, tmp: np.ndarray) -> None:
    """The two xor-shift-multiply rounds of the SplitMix64 avalanche of
    uint64 array `z` after the gamma step, in place (z3 of the module
    docstring); `tmp` is scratch of the same shape."""
    # array ufuncs wrap uint64 silently; only scalar arithmetic warns
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mul, out=z)


def mix64(z) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64."""
    z = np.array(z, dtype=np.uint64)  # a copy, mixed in place
    np.add(z, _GAMMA, out=z)
    _multiply_rounds(z, np.empty_like(z))
    z ^= z >> np.uint64(31)
    return z[()]  # a scalar stays a scalar


def stream_key(seed, stream) -> np.ndarray:
    """Derive the 64-bit key of one stream, or the keys of arrays of seeds
    and streams, broadcast element by element."""
    with np.errstate(over="ignore"):
        s = np.asarray(seed, dtype=np.uint64) * _KEYMUL
        return mix64(s + mix64(stream))


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) at positions 0..count-1 of one stream: row 0 of
    `uniform_block`."""
    return uniform_block(seed, [stream], count)[0]


def uniform_block(seed, streams, count: int) -> np.ndarray:
    """Matrix of uniforms: row k holds positions 0..count-1 of streams[k].
    An array of seeds broadcasts against the streams, and the positions
    run along a last axis of the broadcast shape."""
    keys = stream_key(seed, np.asarray(streams, dtype=np.uint64))
    with np.errstate(over="ignore"):
        pos = np.arange(count, dtype=np.uint64) * _GAMMA
        bits = mix64(keys[..., None] + pos)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


class BernoulliBlocks:
    """Bernoulli draws for rows of streams given by their keys.

    ``draw(keys)`` returns the ascending flat positions ``k * len(x) + j``
    at which ``uniform(i, j) < x[j]``, where ``keys[k] == stream_key(seed,
    i)``, decided on integer thresholds.  The caller derives the keys
    (`stream_key` works element by element, so keys derived once for a
    whole run give the same rows as keys derived per block).  The hashing
    runs in scratch buffers allocated once for up to `max_rows` rows.
    """

    def __init__(self, x, max_rows: int):
        self._thresholds = t = np.ceil(np.multiply(x, 2.0 ** 53)).astype(np.uint64)
        # (j + 1) * GAMMA: the position step and mix64's gamma step in one
        self._offsets = np.arange(1, len(t) + 1, dtype=np.uint64) * _GAMMA
        self._cuts = np.where(t > 0, ((t << np.uint64(11)) - np.uint64(1))
                              | np.uint64((1 << 33) - 1), np.uint64(0))
        self._z = np.empty((max_rows, len(t)), dtype=np.uint64)
        self._tmp = np.empty_like(self._z)
        self._hit = np.empty(self._z.shape, dtype=bool)

    def draw(self, keys: np.ndarray) -> np.ndarray:
        """int64 flat positions of the realized draws of the streams of
        uint64 `keys`, ascending."""
        rows = len(keys)
        z = self._z[:rows]
        np.add(keys[:, None], self._offsets, out=z)
        _multiply_rounds(z, self._tmp[:rows])
        cand = np.flatnonzero(np.less_equal(z, self._cuts, out=self._hit[:rows]))
        bits = z.reshape(-1)[cand]
        bits ^= bits >> np.uint64(31)
        # position k * m + j's threshold is at j: a floor divide by the scalar
        # m is cheap where a modulo (or take(mode="wrap")) is not
        m = len(self._thresholds)
        return cand[(bits >> np.uint64(11)) < self._thresholds[cand - cand // m * m]]
