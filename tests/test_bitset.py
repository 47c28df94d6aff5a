import random

from sbk.bitset import members


def test_members_matches_a_bit_scan_on_random_masks():
    rng = random.Random(20261018)
    masks = [0, 1, 1 << 63, (1 << 64) - 1]
    masks += [rng.getrandbits(64) for _ in range(500)]
    masks += [rng.getrandbits(64) & rng.getrandbits(64) & rng.getrandbits(64) for _ in range(200)]
    for mask in masks:
        assert members(mask) == [i for i in range(64) if mask >> i & 1]
