"""Example collation and the JSON-lines dataset format."""

import json
import re

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


@pytest.mark.parametrize("label", [1 << 63, 10**30])
def test_collate_rejects_label_beyond_int64(label):
    examples = sample_examples() + [Example(np.zeros(2), [0], label)]
    with pytest.raises(DataError, match="^label out of int64 range"):
        collate(examples, vocab_size=3)


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


@pytest.mark.parametrize("field, value", [
    ("label", True),
    ("label", "0"),
    ("label", 1.9),
    ("token_ids", [1.5]),
    ("token_ids", ["1"]),
    ("token_ids", [True]),
    ("token_ids", "01"),
    ("image_features", ["0.1"]),
    ("image_features", [True]),
    ("image_features", [[0.1, 0.2]]),
    ("gold_node", ["a"]),
])
def test_read_rejects_field_of_wrong_type(tmp_path, field, value):
    record = {"image_features": [0.1, 2], "token_ids": [0, 1], "label": 1, "gold_node": "a"}
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(dict(record, **{field: value})) + "\n")
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: line 2: field '{field}': ")):
        read_examples(path)
    path.write_text(json.dumps(record) + "\n")
    (example,) = read_examples(path)
    assert example.image_features.tolist() == [0.1, 2.0] and example.token_ids == [0, 1]
    assert example.label == 1 and example.gold_node == "a"


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


def _two_line_file(path, second):
    """A valid first line, then ``second``: a dict of fields to override, or raw text."""
    record = {"image_features": [0.1, 2], "token_ids": [0, 1], "label": 1, "gold_node": "a"}
    line = second if isinstance(second, str) else json.dumps(dict(record, **second))
    path.write_text(json.dumps(record) + "\n" + line + "\n")
    return path


@pytest.mark.parametrize("features", [
    [float("nan"), 0.5],
    [0.5, float("inf")],
    [float("-inf"), 0.5],
    "[1e400, 0.5]",  # parses as inf
    "[0.5, " + "1" * 400 + "]",  # an integer beyond float64
])
def test_read_rejects_non_finite_features(tmp_path, features):
    if isinstance(features, str):
        second = ('{"image_features": ' + features
                  + ', "token_ids": [0], "label": 0, "gold_node": null}')
    else:
        second = {"image_features": features}
    path = _two_line_file(tmp_path / "features.jsonl", second)
    with pytest.raises(DataError,
                       match="^" + re.escape(f"{path}: line 2: field 'image_features': ")):
        read_examples(path)


@pytest.mark.parametrize("features", [[], [0.5], [0.5, 0.5, 0.5]])
def test_read_rejects_feature_row_of_other_length(tmp_path, features):
    path = _two_line_file(tmp_path / "widths.jsonl", {"image_features": features})
    with pytest.raises(DataError, match="^" + re.escape(
            f"{path}: line 2: field 'image_features': {len(features)} numbers, expected 2")):
        read_examples(path)


def test_read_checks_feature_width_given_width(tmp_path):
    path = _two_line_file(tmp_path / "widths.jsonl", {})
    with pytest.raises(DataError, match="^" + re.escape(
            f"{path}: line 1: field 'image_features': 2 numbers, expected 3")):
        read_examples(path, width=3)
    assert len(read_examples(path, width=2)) == 2


@pytest.mark.parametrize("label", [2, 99, 10**30])
def test_read_checks_label_range_given_n_classes(tmp_path, label):
    path = _two_line_file(tmp_path / "labels.jsonl", {"label": label})
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: line 2: field 'label': ")):
        read_examples(path, n_classes=2)
    # without a class count only the sign and the int64 range are checked
    if label < 1 << 63:
        assert read_examples(path)[1].label == label
    path = _two_line_file(path, {"label": 1})
    assert [ex.label for ex in read_examples(path, n_classes=2)] == [1, 1]


@pytest.mark.parametrize("label", [1 << 63, 10**30])
def test_read_rejects_label_beyond_int64(tmp_path, label):
    path = _two_line_file(tmp_path / "labels.jsonl", {"label": label})
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: line 2: field 'label': {label} ")):
        read_examples(path)
    path = _two_line_file(path, {"label": (1 << 63) - 1})
    assert collate(read_examples(path), 3).labels[1] == (1 << 63) - 1
