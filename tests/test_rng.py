import numpy as np

from matchgap.rng import mix64, stream_key, uniform_block, uniforms

# Golden values pin the bit derivation across platforms and refactors.
GOLDEN_SEED1_STREAM0 = [0.753709642397528, 0.6762883648924192,
                        0.0890611210809692, 0.0868022788146301]
GOLDEN_OFFSET = [0.29956707746532407, 0.9213186722379048, 0.5905376292303061]


def test_golden_values():
    assert uniforms(1, 0, 4).tolist() == GOLDEN_SEED1_STREAM0
    assert uniforms(123456789, 42, 3, start=5).tolist() == GOLDEN_OFFSET


def test_range_and_determinism():
    u = uniforms(7, 3, 1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, uniforms(7, 3, 1000))


def test_start_offset_consistency():
    whole = uniforms(9, 2, 20)
    assert np.array_equal(whole[5:], uniforms(9, 2, 15, start=5))


def test_block_matches_single_streams():
    block = uniform_block(5, [0, 3, 7], 16)
    for row, stream in zip(block, (0, 3, 7)):
        assert np.array_equal(row, uniforms(5, stream, 16))


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
