"""FNV-1a, derived seeds and generator draws: pinned values that every
run's bits rest on."""

import pytest

from akgp.rng import Rng, derive_seed, fnv1a_64, splitmix64, splitmix64_array


def test_fnv1a_known_vectors():
    # standard 64-bit FNV-1a reference values
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_derive_seed_is_pinned():
    # the graph seed of every default run; a change here changes every result
    assert derive_seed(0, "graph") == 0x462A81274F877372


def _sequential_splitmix64(seed, count):
    out = []
    for _ in range(count):
        seed, word = splitmix64(seed)
        out.append(word)
    return out


def test_splitmix64_array_equals_sequential_splitmix64():
    seeds = [0, 1, 0x9E3779B97F4A7C15, (1 << 64) - 1, derive_seed(3, "negatives")]
    for seed in seeds:
        assert splitmix64_array(seed, 50).tolist() == _sequential_splitmix64(seed, 50)
    rows = splitmix64_array(seeds, 50)
    assert rows.shape == (len(seeds), 50)
    assert rows.tolist() == [_sequential_splitmix64(seed, 50) for seed in seeds]


@pytest.mark.parametrize("n, low, high", [(0, 0.0, 1.0), (1, -1.0, 1.0), (977, -0.3, 2.5),
                                          (9760, -0.25, 0.25), (5, 2, 3)])
def test_uniform_array_equals_sequential_uniform(n, low, high):
    one_by_one, batched = Rng(derive_seed(7, "init")), Rng(derive_seed(7, "init"))
    expected = [one_by_one.uniform(low, high) for _ in range(n)]
    got = batched.uniform_array(n, low, high)
    assert got.dtype.name == "float64" and got.shape == (n,)
    assert got.tolist() == expected
    assert batched.get_state() == one_by_one.get_state()
