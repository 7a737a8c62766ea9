"""FNV-1a and derived seeds: pinned values that every run's bits rest on."""

from akgp.rng import derive_seed, fnv1a_64


def test_fnv1a_known_vectors():
    # standard 64-bit FNV-1a reference values
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_derive_seed_is_pinned():
    # the graph seed of every default run; a change here changes every result
    assert derive_seed(0, "graph") == 0x462A81274F877372
