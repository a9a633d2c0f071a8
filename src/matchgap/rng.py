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

`BernoulliBlocks` keeps its six arrays in one buffer laid out from a 4 KiB
boundary, each array at a fixed offset within its page (`_arena`), so the
draw's speed does not depend on where the allocator puts them.  The hash
passes make 64-byte vector loads, so every array starts on a 64-byte
boundary; and a load whose address matches an earlier store to another
array in its low 12 bits (4 KiB aliasing) waits on that store, so `_z`
and `_tmp`, which the passes read and write together, start 2048 bytes
apart modulo 4 KiB.  The other offsets are the fastest measured.

numpy's `nonzero` takes a branchy path on bool masks of density up to 10%,
over twice as slow on random masks near 8% as at 11%.  Where the expected
candidate share lies in (1/64, 1/10], `draw` reads the hit mask's packed
bytes instead (`_packed_nonzero`), whose nonzero bytes and their bits are
denser masks.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_KEYMUL = np.uint64(0xD1342543DE82EF95)

_ROUNDS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2))
_SHIFT11 = np.uint64(11)
_SHIFT31 = np.uint64(31)

_INV_2_53 = 2.0 ** -53

_PAGE = 4096


def _multiply_rounds(z: np.ndarray, tmp: np.ndarray) -> None:
    """The two xor-shift-multiply rounds of the SplitMix64 avalanche of
    uint64 array `z` after the gamma step, in place (z3 of the module
    docstring); `tmp` is scratch of the same shape."""
    # array ufuncs wrap uint64 silently; only scalar arithmetic warns
    for shift, mul in _ROUNDS:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mul, out=z)


def mix64(z) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64."""
    z = np.array(z, dtype=np.uint64)  # a copy, mixed in place
    np.add(z, _GAMMA, out=z)
    _multiply_rounds(z, np.empty_like(z))
    z ^= z >> _SHIFT31
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
    return (bits >> _SHIFT11).astype(np.float64) * _INV_2_53


def _arena(specs) -> list[np.ndarray]:
    """Empty arrays of the (shape, dtype, page offset) `specs` as views into
    one buffer, in order: each starts at the first byte after the array
    before it whose distance from a 4 KiB boundary is its page offset."""
    spans, end = [], 0
    for shape, dtype, at in specs:
        start = end + (at - end) % _PAGE
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        spans.append((start, end))
    buf = np.empty(end + _PAGE, dtype=np.uint8)
    base = -buf.__array_interface__["data"][0] % _PAGE
    return [buf[base + a:base + b].view(dtype).reshape(shape)
            for (a, b), (shape, dtype, _) in zip(spans, specs)]


def _packed_nonzero(mask: np.ndarray) -> np.ndarray:
    """``mask.nonzero()[0]`` of a 1-d bool `mask`, read from its packed
    bytes: position ``byte * 8 + bit``, ascending as the bytes and bits are."""
    packed = np.packbits(mask)
    byte = (packed != 0).nonzero()[0]
    bit = np.unpackbits(packed[byte]).view(bool).nonzero()[0]
    return (byte[bit >> 3] << 3) | (bit & 7)


class BernoulliBlocks:
    """Bernoulli draws for rows of streams given by their keys.

    ``draw(keys)`` returns the ascending flat positions ``k * len(x) + j``
    at which ``uniform(i, j) < x[j]``, where ``keys[k] == stream_key(seed,
    i)``, decided on integer thresholds.  The caller derives the keys
    (`stream_key` works element by element, so keys derived once for a
    whole run give the same rows as keys derived per block).  The hashing
    runs in scratch arrays allocated once for up to `max_rows` rows, views
    into one buffer laid out by `_arena` (module docstring).
    """

    def __init__(self, x, max_rows: int):
        block, edges = (max_rows, len(x)), (len(x),)
        self._z, self._tmp, self._hit, self._offsets, self._cuts, t = _arena((
            (block, np.uint64, 0), (block, np.uint64, 2048), (block, bool, 1024),
            (edges, np.uint64, 3072), (edges, np.uint64, 1024), (edges, np.uint64, 2048)))
        t[...] = np.ceil(np.multiply(x, 2.0 ** 53))
        self._thresholds = t
        # (j + 1) * GAMMA: the position step and mix64's gamma step in one
        np.multiply(np.arange(1, len(t) + 1, dtype=np.uint64), _GAMMA, out=self._offsets)
        self._cuts[...] = np.where(t > 0, ((t << _SHIFT11) - np.uint64(1))
                                   | np.uint64((1 << 33) - 1), np.uint64(0))
        # z3 is uniform, so (cut + 1) / 2**64 of an edge's draws are candidates
        share = self._cuts.sum(dtype=np.float64) / 2.0 ** 64 / max(len(t), 1)
        self._packed = 1 / 64 < share <= 1 / 10

    def draw(self, keys: np.ndarray) -> np.ndarray:
        """int64 flat positions of the realized draws of the streams of
        uint64 `keys`, ascending."""
        rows = len(keys)
        if rows > len(self._z):
            raise ValueError(f"{rows} keys for a draw of at most max_rows = {len(self._z)} rows")
        z, hit = self._z[:rows], self._hit[:rows]
        np.add(keys[:, None], self._offsets, out=z)
        _multiply_rounds(z, self._tmp[:rows])
        np.less_equal(z, self._cuts, out=hit)
        hit = hit.reshape(-1)
        cand = _packed_nonzero(hit) if self._packed else hit.nonzero()[0]
        bits = z.reshape(-1)[cand]
        bits ^= bits >> _SHIFT31
        # position k * m + j's threshold is at j: a floor divide by the scalar
        # m is cheap where a modulo (or take(mode="wrap")) is not, and a
        # one-row block needs neither
        m = len(self._thresholds)
        cols = cand if rows == 1 else cand - cand // m * m
        return cand[(bits >> _SHIFT11) < self._thresholds[cols]]
