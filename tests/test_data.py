"""Example collation and the JSON-lines dataset format."""

import numpy as np
import pytest

from akgp.data import DataError, Example, collate, read_examples, write_examples


def sample_examples():
    return [
        Example(np.array([0.1, 0.2]), [0, 1, 1], label=0, gold_node="a"),
        Example(np.array([-0.5, 0.25]), [2], label=1, gold_node=None),
    ]


def test_collate_bow_is_mean_weights():
    batch = collate(sample_examples(), vocab_size=3, node_index={"a": 7})
    assert np.allclose(batch.token_bow[0], [1 / 3, 2 / 3, 0.0])
    assert np.allclose(batch.token_bow[1], [0.0, 0.0, 1.0])
    assert batch.gold_indices.tolist() == [7, -1]
    assert batch.labels.tolist() == [0, 1]


def collate_loop(examples, vocab_size, node_index=None):
    """The per-token collation loop the vectorized collate replaced: (images,
    bag-of-tokens rows, labels, gold indices)."""
    bow = np.zeros((len(examples), vocab_size))
    gold = np.full(len(examples), -1, dtype=np.int64)
    for row, ex in enumerate(examples):
        for tok in ex.token_ids:
            if tok < 0 or tok >= vocab_size:
                raise DataError(f"token id {tok} out of range for vocab {vocab_size}")
            bow[row, tok] += 1.0
        bow[row] /= len(ex.token_ids)
        if ex.gold_node is not None and node_index is not None:
            idx = node_index.get(ex.gold_node)
            if idx is None:
                raise DataError(f"gold node {ex.gold_node!r} not present in the graph")
            gold[row] = idx
    images = np.stack([ex.image_features for ex in examples])
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return images, bow, labels, gold


def ragged_examples(n, vocab, seed):
    rng = np.random.default_rng(seed)
    nodes = ["a", "b", None]
    return [Example(rng.standard_normal(3),
                    [int(t) for t in rng.integers(0, vocab, rng.integers(1, 12))],
                    label=int(rng.integers(0, 4)), gold_node=nodes[i % 3])
            for i in range(n)]


def assert_batch_equals_loop(batch, examples, vocab, node_index):
    images, bow, labels, gold = collate_loop(examples, vocab, node_index)
    assert batch.images.tobytes() == images.tobytes()
    assert batch.token_bow.tobytes() == bow.tobytes()
    assert batch.token_bow.shape == bow.shape
    assert np.array_equal(batch.labels, labels)
    assert np.array_equal(batch.gold_indices, gold)


@pytest.mark.parametrize("seed", range(5))
def test_collate_bit_equal_to_loop(seed):
    vocab, node_index = 7, {"a": 3, "b": 0}
    examples = ragged_examples(40, vocab, seed)
    assert_batch_equals_loop(collate(examples, vocab, node_index), examples, vocab,
                             node_index)


@pytest.mark.parametrize("seed", range(5))
def test_take_bit_equal_to_loop_over_chosen_rows(seed):
    vocab, node_index = 7, {"a": 3, "b": 0}
    examples = ragged_examples(40, vocab, seed)
    dataset = collate(examples, vocab, node_index)
    order = np.random.default_rng(seed).permutation(40)
    for lo in range(0, 40, 16):
        rows = order[lo:lo + 16]
        assert_batch_equals_loop(dataset.take(rows), [examples[i] for i in rows],
                                 vocab, node_index)


def test_collate_rejects_out_of_range_token():
    for bad in (3, -1, 10**30):
        examples = sample_examples() + [Example(np.array([0.0, 0.0]), [0, bad], label=0)]
        with pytest.raises(DataError):
            collate(examples, vocab_size=3)
    with pytest.raises(DataError):
        collate(sample_examples(), vocab_size=2)


def test_collate_rejects_unknown_gold_node():
    with pytest.raises(DataError):
        collate(sample_examples(), vocab_size=3, node_index={"b": 0})


def test_example_validation():
    with pytest.raises(DataError):
        Example(np.array([1.0]), [], label=0)
    with pytest.raises(DataError):
        Example(np.array([[1.0]]), [0], label=0)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    examples = sample_examples()
    write_examples(path, examples)
    loaded = read_examples(path)
    assert len(loaded) == 2
    for orig, back in zip(examples, loaded):
        assert np.array_equal(orig.image_features, back.image_features)
        assert orig.token_ids == back.token_ids
        assert orig.label == back.label
        assert orig.gold_node == back.gold_node


def test_read_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"image_features": [1.0], "token_ids": [0], "label": 0}\nnot json\n')
    with pytest.raises(DataError, match="line 2"):
        read_examples(path)


def test_read_rejects_missing_field(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"token_ids": [0], "label": 0}\n')
    with pytest.raises(DataError):
        read_examples(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        read_examples(path)
