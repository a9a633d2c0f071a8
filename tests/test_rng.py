import itertools

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


def test_draw_at_the_cut_boundary():
    # every crafted row puts one column's z3 in the band; the flat draw
    # must agree with (mix64(key + j GAMMA) >> 11) < ceil(x 2**53) on every
    # entry, crafted or not
    gen = np.random.default_rng(15)
    x = BOUNDARY_X
    width, rows = len(x), 9 * 4000
    col = np.arange(rows) % width
    t = np.ceil(x[col] * 2.0 ** 53).astype(np.uint64)
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


def test_draw_reads_each_rows_thresholds():
    # a row k > 0 of a block reads edge j's threshold at flat position
    # k * m + j; blocks of 16 rows, then a last block of 5 in the same
    # scratch, against mix64 on every (row, edge), x = 0 and 1 included
    x = np.concatenate([BOUNDARY_X, np.random.default_rng(4).random(28)])
    m, rows = len(x), 16
    draws = BernoulliBlocks(x, rows)
    keys = stream_key(21, np.arange(3 * rows + 5, dtype=np.uint64))
    with np.errstate(over="ignore"):
        bits = mix64(keys[:, None] + np.arange(m, dtype=np.uint64) * rng._GAMMA)
    want = (bits >> np.uint64(11)) < np.ceil(x * 2.0 ** 53).astype(np.uint64)
    got = [dense_block(draws.draw(keys[k:k + rows]), len(keys[k:k + rows]), m)
           for k in range(0, len(keys), rows)]
    assert [len(block) for block in got] == [rows] * 3 + [5]
    assert np.array_equal(np.concatenate(got), want)
    assert not want[:, 0].any() and want[:, -29].all()  # x = 0 and x = 1
    assert want[rows:].any(axis=0).sum() > m // 2


SCRATCH = ("_z", "_tmp", "_hit", "_offsets", "_cuts", "_thresholds")


def page_offsets(draws):
    return [getattr(draws, name).__array_interface__["data"][0] % 4096 for name in SCRATCH]


@pytest.mark.parametrize("m, rows", [(1019, 3), (40_000, 1), (991, 66), (7, 64)])
def test_scratch_arena_layout(m, rows):
    # every array on a 64-byte boundary, _z and _tmp 2 KiB apart modulo
    # 4 KiB, and no two arrays overlapping
    draws = BernoulliBlocks(np.full(m, 0.5), rows)
    assert all(off % 64 == 0 for off in page_offsets(draws))
    z, tmp = (getattr(draws, name).__array_interface__["data"][0] for name in ("_z", "_tmp"))
    assert (tmp - z) % 4096 == 2048
    for a, b in itertools.combinations(SCRATCH, 2):
        assert not np.shares_memory(getattr(draws, a), getattr(draws, b)), (a, b)


def test_scratch_arena_page_offsets_do_not_depend_on_the_heap():
    # arrays allocated first move where the allocator puts the arena, not
    # where its arrays sit in their pages
    x = np.full(1019, 0.5)
    want = page_offsets(BernoulliBlocks(x, 3))
    for size in (5_000, 150_000, 300_000):
        first = np.ones(size, dtype=np.uint8)
        assert page_offsets(BernoulliBlocks(x, 3)) == want, size
        del first


@pytest.mark.parametrize("x_at", ["zero", "one", "inside"])
@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("m", [0, 1, 7, 1019])
def test_draw_matches_uniform_block(m, rows, x_at):
    # blocks of `rows` keys and a last one-row block, against uniform < x
    x = {"zero": np.zeros(m), "one": np.ones(m),
         "inside": np.random.default_rng(m + rows).random(m)}[x_at]
    streams = np.arange(2 * rows + 1, dtype=np.uint64)
    draws = BernoulliBlocks(x, rows)
    keys = stream_key(31, streams)
    got = [dense_block(draws.draw(keys[k:k + rows]), len(keys[k:k + rows]), m)
           for k in range(0, len(keys), rows)]
    assert len(got[-1]) == 1
    assert np.array_equal(np.concatenate(got), uniform_block(31, streams, m) < x)


SHARES = {"0.005": 0.005, "0.03": 0.03, "0.083": 0.083, "0.3": 0.3, "mixed": (0.0, 0.01, 0.2)}


@pytest.mark.parametrize("rows", [1, 3, 66])
@pytest.mark.parametrize("m", [0, 1, 7, 984, 1019])
@pytest.mark.parametrize("share", list(SHARES))
def test_draw_scans(share, m, rows):
    # x at one share, or cycling 0, 0.01, 0.2 (mean 0.07); rows x m is not
    # always a multiple of 8, so the packed scan's last byte is padded
    x = np.resize(SHARES[share], m).astype(np.float64)
    draws = BernoulliBlocks(x, rows)
    assert draws._packed == (m > 0 and 1 / 64 < x.mean() <= 1 / 10)
    streams = np.arange(2 * rows + 1, dtype=np.uint64)
    keys = stream_key(17, streams)
    for k in range(0, len(keys), rows):
        want = np.flatnonzero(uniform_block(17, streams[k:k + rows], m) < x)
        got = draws.draw(keys[k:k + rows])
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 64, 1001])
def test_packed_nonzero(size):
    gen = np.random.default_rng(size)
    for mask in (np.zeros(size, bool), np.ones(size, bool), gen.random(size) < 0.08):
        assert np.array_equal(rng._packed_nonzero(mask), mask.nonzero()[0])


def test_draw_refuses_more_keys_than_max_rows():
    # past max_rows the scratch slices would come up short; a full block
    # still draws after the refusal
    x, streams = np.full(5, 0.5), np.arange(6, dtype=np.uint64)
    draws = BernoulliBlocks(x, 4)
    with pytest.raises(ValueError, match="max_rows"):
        draws.draw(stream_key(0, streams))
    got = dense_block(draws.draw(stream_key(0, streams[:4])), 4, 5)
    assert np.array_equal(got, uniform_block(0, streams[:4], 5) < x)


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
