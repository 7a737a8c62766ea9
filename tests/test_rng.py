"""FNV-1a, derived seeds and generator draws: pinned values that every
run's bits rest on."""

import numpy as np
import pytest

from akgp.rng import (_LANE, _LANES_FROM, Rng, _jump, derive_seed, fnv1a_64, splitmix64,
                      splitmix64_array, splitmix64_words)


def test_fnv1a_known_vectors():
    # standard 64-bit FNV-1a reference values
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_derive_seed_is_pinned():
    # the graph seed of every default run; a change here changes every result
    assert derive_seed(0, "graph") == 0x462A81274F877372


def test_generator_draws_are_pinned():
    # splitmix64's reference outputs seed the state; xoshiro256** then draws
    rng = Rng(0)
    assert rng.get_state()[0] == 0xE220A8397B1DCDAF
    assert [rng.next_u64() for _ in range(3)] == [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0]


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


def test_splitmix64_words_continue_the_counters():
    seed = derive_seed(1, "negatives")
    whole = splitmix64_array(seed, 110).tolist()
    for skip in (0, 1, 77):
        words = splitmix64_words(seed, skip)
        assert [next(words) for _ in range(110 - skip)] == whole[skip:]
    words = splitmix64_words((1 << 64) - 1, 3)
    assert [next(words) for _ in range(5)] == _sequential_splitmix64((1 << 64) - 1, 8)[3:]


@pytest.mark.parametrize("n, low, high", [(0, 0.0, 1.0), (1, -1.0, 1.0), (977, -0.3, 2.5),
                                          (9760, -0.25, 0.25), (5, 2, 3),
                                          # the train-3k token table's xavier init
                                          (3014 * 16, -(6 / 3030) ** 0.5, (6 / 3030) ** 0.5),
                                          # either side of the switch to jump-ahead lanes,
                                          # whole lanes and one step more
                                          (_LANES_FROM - 1, -1.0, 1.0), (_LANES_FROM, -1.0, 1.0),
                                          (_LANES_FROM + 1, -1.0, 1.0), (_LANE * 24, 0.0, 1.0),
                                          (_LANE * 24 + 1, 0.0, 1.0),
                                          # the node features of train-3k and of a 10k-node graph
                                          (48064, -0.5, 0.5), (160064, -0.1, 0.1)])
def test_uniform_array_equals_sequential_uniform(n, low, high):
    one_by_one, batched = Rng(derive_seed(7, "init")), Rng(derive_seed(7, "init"))
    expected = [one_by_one.uniform(low, high) for _ in range(n)]
    got = batched.uniform_array(n, low, high)
    assert got.dtype.name == "float64" and got.shape == (n,)
    assert got.tolist() == expected
    assert batched.get_state() == one_by_one.get_state()


@pytest.mark.parametrize("state", [(1, 0, 0, 0), (0, 0, 0, 1 << 63),
                                   ((1 << 64) - 1,) * 4, (1 << 63, 5, 1 << 63, 7)]
                         + [Rng(seed).get_state() for seed in (0, 3, derive_seed(9, "init"))])
def test_jump_equals_one_lane_of_steps(state):
    rng = Rng(0)
    rng.set_state(state)
    for _ in range(_LANE):
        rng.next_u64()
    assert _jump(np.array(state, dtype=np.uint64)).tolist() == list(rng.get_state())


def _shuffle_one_draw_at_a_time(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 1600, _LANES_FROM + 7])
def test_shuffle_equals_one_draw_at_a_time(n):
    for seed in range(20):
        bulk, one_by_one = Rng(derive_seed(seed, "shuffle")), Rng(derive_seed(seed, "shuffle"))
        got, expected = list(range(n)), list(range(n))
        bulk.shuffle(got)
        _shuffle_one_draw_at_a_time(one_by_one, expected)
        assert got == expected
        assert bulk.get_state() == one_by_one.get_state()


def _state_whose_first_output_is(word):
    """Invert the ** scrambler, rotl(s1 * 5, 7) * 9: the state's other words
    do not enter the first output."""
    mask = (1 << 64) - 1
    x = (word * pow(9, -1, 1 << 64)) & mask
    x = ((x >> 7) | (x << 57)) & mask
    return (11, (x * pow(5, -1, 1 << 64)) & mask, 22, 33)


def test_shuffle_redraws_a_word_in_the_rejection_zone():
    # randrange(3) rejects only 2**64 - 1, the one word above 3 * (2**64 // 3)
    state = _state_whose_first_output_is((1 << 64) - 1)
    probe = Rng(0)
    probe.set_state(state)
    assert probe.next_u64() == (1 << 64) - 1
    bulk, one_by_one = Rng(0), Rng(0)
    bulk.set_state(state)
    one_by_one.set_state(state)
    got, expected = list("abc"), list("abc")
    bulk.shuffle(got)
    _shuffle_one_draw_at_a_time(one_by_one, expected)
    assert got == expected
    assert bulk.get_state() == one_by_one.get_state()
    # the redraw consumed one word more than the shuffle's two
    plain = Rng(0)
    plain.set_state(state)
    for _ in range(3):
        plain.next_u64()
    assert bulk.get_state() == plain.get_state()


def test_set_state_rejects_the_all_zero_state():
    # from (0, 0, 0, 0) xoshiro256** outputs 0 forever
    rng = Rng(0)
    with pytest.raises(ValueError, match="all zero"):
        rng.set_state((0, 0, 0, 1 << 64))
    assert rng.get_state() == Rng(0).get_state()
