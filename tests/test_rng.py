import numpy as np
import pytest

from matchgap import rng
from matchgap.rng import BernoulliBlocks, mix64, stream_key, uniform_block, uniforms
from matchgap.sampling import dense_block


# Golden values pin the bit derivation across platforms and refactors.
GOLDEN_SEED1_STREAM0 = [0.753709642397528, 0.6762883648924192,
                        0.0890611210809692, 0.0868022788146301]
GOLDEN_OFFSET = [0.29956707746532407, 0.9213186722379048, 0.5905376292303061]


def test_golden_values():
    assert uniforms(1, 0, 4).tolist() == GOLDEN_SEED1_STREAM0
    assert uniform_block(123456789, [42], 8)[0, 5:].tolist() == GOLDEN_OFFSET


def test_range_and_determinism():
    u = uniforms(7, 3, 1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, uniforms(7, 3, 1000))


def test_start_offset_consistency():
    # position j of a stream does not depend on how many are drawn
    whole = uniforms(9, 2, 20)
    assert np.array_equal(whole[:15], uniforms(9, 2, 15))


def test_block_matches_single_streams():
    block = uniform_block(5, [0, 3, 7], 16)
    for row, stream in zip(block, (0, 3, 7)):
        assert np.array_equal(row, uniforms(5, stream, 16))


def test_seed_arrays_broadcast_against_streams():
    seeds = np.array([0, 5, 2 ** 63 + 5, 2 ** 64 - 1], dtype=np.uint64)
    block = uniform_block(seeds[:, None], [0, 3, 7], 16)
    assert block.shape == (4, 3, 16)
    for seed, row, key in zip(seeds.tolist(), block, stream_key(seeds, 3)):
        assert np.array_equal(row, uniform_block(seed, [0, 3, 7], 16))
        assert key == stream_key(seed, 3)


def test_bernoulli_rows_of_their_own():
    # one probability row per drawn row decides row k as a draw on x[k] alone
    x = uniform_block(3, np.arange(5), 9)
    x[1] = 0.0
    x[2, 4:] = 1.0
    keys = stream_key(4, np.arange(10, 15, dtype=np.uint64))
    flat = BernoulliBlocks(x, 5).draw(keys)
    assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
    rows = dense_block(flat, *x.shape)
    for k in range(5):
        own = BernoulliBlocks(x[k], 1).draw(keys[k:k + 1])
        assert np.array_equal(np.flatnonzero(rows[k]), own)
    assert not rows[1].any() and rows[2, 4:].all()


# the x at both ends of the cut, at a tiny threshold, and on both sides of
# 1/4, where a cut on the low 31 bits fails
BOUNDARY_X = np.array([0.0, 2.0 ** -53, 0.005, 0.26, 0.3, 0.5, 0.75, 0.999, 1.0])


def keys_reaching(z3, j):
    """Stream keys whose position j holds `z3` after the second multiply
    of the SplitMix64 mix: each step undone, the multiplies by their
    inverses mod 2**64 and each xor-shift by shifting again until it
    settles."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> np.uint64(s))
        return x

    with np.errstate(over="ignore"):
        z = unshift(z3 * np.uint64(pow(int(rng._MIX2), -1, 1 << 64)), 27)
        z = unshift(z * np.uint64(pow(int(rng._MIX1), -1, 1 << 64)), 30)
        return z - (np.asarray(j, dtype=np.uint64) + np.uint64(1)) * rng._GAMMA


def boundary_band(t, gen):
    """z3 values in the band z3 >> 33 == (L - 1) >> 33, L = t * 2**11 (mod
    2**64), where the cut alone cannot decide."""
    top = ((t << np.uint64(11)) - np.uint64(1)) >> np.uint64(33)
    low = gen.integers(0, 1 << 33, len(t), dtype=np.uint64)
    return (top << np.uint64(33)) | low


@pytest.mark.parametrize("per_row", [False, True])
def test_draw_at_the_cut_boundary(per_row):
    # every crafted row puts one column's z3 in the band; the flat draw
    # must agree with (mix64(key + j GAMMA) >> 11) < ceil(x 2**53) on every
    # entry, crafted or not
    gen = np.random.default_rng(15)
    width, rows = len(BOUNDARY_X), 9 * 4000
    x = (np.array([np.roll(BOUNDARY_X, k // width) for k in range(rows)]) if per_row
         else BOUNDARY_X[None])
    col = np.arange(rows) % width
    t = np.ceil(x[np.arange(rows) % len(x), col] * 2.0 ** 53).astype(np.uint64)
    z3 = boundary_band(t, gen)
    keys = keys_reaching(z3, col)
    with np.errstate(over="ignore"):
        bits = rng.mix64(keys[:, None] + np.arange(width, dtype=np.uint64) * rng._GAMMA)
    want = (bits >> np.uint64(11)) < np.ceil(x * 2.0 ** 53).astype(np.uint64)
    got = dense_block(BernoulliBlocks(x, rows).draw(keys), rows, width)
    assert np.array_equal(got, want)
    # the crafted column really is z3, and the band decides both ways at
    # 0 < x < 1; a cut that kept only the low 31 bits would drop draws
    # that are realized
    crafted = want[np.arange(rows), col]
    assert np.array_equal(bits[np.arange(rows), col], z3 ^ (z3 >> np.uint64(31)))
    inner = (t > 1) & (t < 1 << 53)
    assert crafted[inner].any() and not crafted[inner].all()
    cut31 = ((t << np.uint64(11)) - np.uint64(1)) | np.uint64((1 << 31) - 1)
    assert np.count_nonzero(crafted & (t > 0) & (z3 > cut31)) > 1000


def test_streams_and_seeds_differ():
    assert not np.array_equal(uniforms(1, 0, 64), uniforms(1, 1, 64))
    assert not np.array_equal(uniforms(1, 0, 64), uniforms(2, 0, 64))
    assert stream_key(1, 0) != stream_key(0, 1)


def test_uniformity_gross():
    u = uniforms(11, 0, 200_000)
    counts, _ = np.histogram(u, bins=10, range=(0, 1))
    assert abs(u.mean() - 0.5) < 0.005
    assert counts.min() > 18_000

def test_mix64_is_deterministic_bijection_sample():
    vals = mix64(np.arange(1000, dtype=np.uint64))
    assert len(np.unique(vals)) == 1000


def test_verify_gain_trials_from_one_block():
    # the verify suite's gain trial k normalizes positions 0..1+k%7 of
    # stream k, taken as a prefix of row k of one 8-column block
    for seed in (0, 1, 5):
        block = uniform_block(seed, np.arange(2000), 8)
        for k in range(2000):
            u, ref = block[k, :2 + k % 7], uniforms(seed, k, 2 + k % 7)
            assert (u / u.sum()).tobytes() == (ref / ref.sum()).tobytes()
