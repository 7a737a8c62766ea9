"""Training examples and their JSON-lines file format.

One example pairs a synthetic image feature vector with a token sequence, a
class label, and optionally the id of the knowledge node that grounds it.
A batch expands its token ids into a normalized bag-of-tokens matrix so the
text encoder can run as a single matrix product.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """A dataset file or example is malformed."""


@dataclass
class Example:
    image_features: np.ndarray
    token_ids: list[int]
    label: int
    gold_node: str | None = None

    def __post_init__(self):
        self.image_features = np.asarray(self.image_features, dtype=np.float64)
        if self.image_features.ndim != 1:
            raise DataError("image_features must be a flat vector")
        if not self.token_ids:
            raise DataError("token sequence must be non-empty")
        if self.label < 0:
            raise DataError("label must be a non-negative class id")


@dataclass
class Batch:
    """Collated examples, one row per example, with token ids kept flat.

    Row i's tokens are ``token_ids[token_offsets[i]:token_offsets[i + 1]]``.
    A whole dataset is collated once and cut into batches with :meth:`take`;
    :attr:`token_bow` expands a batch's tokens into the bag-of-tokens rows
    the text encoder multiplies, so no dataset-sized (N, V) matrix exists.
    """

    images: np.ndarray         # (B, d_i)
    token_ids: np.ndarray      # (T,) int64, the rows' tokens back to back
    token_offsets: np.ndarray  # (B + 1,) int64, row boundaries in token_ids
    labels: np.ndarray         # (B,) int64
    gold_indices: np.ndarray   # (B,) int64, -1 where no gold node
    vocab_size: int

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def token_bow(self) -> np.ndarray:
        """(B, V) mean-of-tokens weights, built on each access: each row's
        token counts divided by its token count."""
        n_rows, vocab = len(self), self.vocab_size
        lengths = np.diff(self.token_offsets)
        cells = np.repeat(np.arange(n_rows) * vocab, lengths) + self.token_ids
        # float counts (unit weights), divided in place: one (B, V) array
        bow = np.bincount(cells, weights=np.ones(cells.shape[0]), minlength=n_rows * vocab)
        bow = bow.reshape(n_rows, vocab)
        bow /= lengths[:, None]
        return bow

    def take(self, rows) -> "Batch":
        """The rows at the given indices, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.token_offsets[rows]
        lengths = self.token_offsets[rows + 1] - starts
        offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # each kept token's position in this batch's token_ids
        source = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return Batch(images=self.images[rows], token_ids=self.token_ids[source],
                     token_offsets=offsets, labels=self.labels[rows],
                     gold_indices=self.gold_indices[rows], vocab_size=self.vocab_size)


def collate(examples: list[Example], vocab_size: int,
            node_index: dict[str, int] | None = None) -> Batch:
    """Stack examples into one batch; gold node ids become graph row indices."""
    if not examples:
        raise DataError("cannot collate an empty example list")
    n_rows = len(examples)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(ex.token_ids) for ex in examples), dtype=np.int64,
                          count=n_rows), out=offsets[1:])
    try:
        tokens = np.fromiter(itertools.chain.from_iterable(ex.token_ids for ex in examples),
                             dtype=np.int64, count=int(offsets[-1]))
    except OverflowError as exc:
        raise DataError(f"token id out of range for vocab {vocab_size}: {exc}") from exc
    bad = (tokens < 0) | (tokens >= vocab_size)
    if bad.any():
        raise DataError(f"token id {tokens[bad][0]} out of range for vocab {vocab_size}")
    gold = np.full(n_rows, -1, dtype=np.int64)
    if node_index is not None:
        for row, ex in enumerate(examples):
            if ex.gold_node is None:
                continue
            idx = node_index.get(ex.gold_node)
            if idx is None:
                raise DataError(f"gold node {ex.gold_node!r} not present in the graph")
            gold[row] = idx
    try:
        labels = np.array([ex.label for ex in examples], dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"label out of int64 range: {exc}") from exc
    return Batch(
        images=np.stack([ex.image_features for ex in examples]),
        token_ids=tokens,
        token_offsets=offsets,
        labels=labels,
        gold_indices=gold,
        vocab_size=vocab_size,
    )


def write_examples(path, examples: list[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            record = {
                "image_features": ex.image_features.tolist(),
                "token_ids": list(ex.token_ids),
                "label": int(ex.label),
                "gold_node": ex.gold_node,
            }
            fh.write(json.dumps(record) + "\n")


def read_examples(path, n_classes: int | None = None, width: int | None = None,
                  nodes=None) -> list[Example]:
    """The examples of a JSON-lines file, one per non-blank line, read in one
    pass. Each line is an object whose fields' types are checked: ``width``
    finite image features (as many as the first line's when ``width`` is
    None), a label below ``n_classes`` (or within int64), and a gold node in
    ``nodes`` when that is given. A bad line raises DataError naming the
    file, the line and the first check it fails."""
    bound = 1 << 63 if n_classes is None else n_classes
    examples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DataError(f"invalid JSON: {exc}") from exc
                    if not isinstance(record, dict):
                        raise DataError("expected a JSON object")
                    try:
                        features, tokens, label = (record["image_features"],
                                                   record["token_ids"], record["label"])
                    except KeyError as exc:
                        raise DataError(f"missing field {exc.args[0]!r}") from None
                    gold = record.get("gold_node")
                    # JSON parses to exact builtin types, and a bool is no number here
                    if not (type(features) is list and set(map(type, features)) <= {int, float}):
                        raise DataError("field 'image_features': must be a list of numbers")
                    if not (type(tokens) is list and set(map(type, tokens)) <= {int}):
                        raise DataError("field 'token_ids': must be a list of integers")
                    if type(label) is not int:
                        raise DataError("field 'label': must be an integer")
                    if not 0 <= label < bound:
                        raise DataError(f"field 'label': {label} is not a class id "
                                        f"in [0, {bound})")
                    if not (gold is None or type(gold) is str):
                        raise DataError("field 'gold_node': must be a string or null")
                    if gold is not None and nodes is not None and gold not in nodes:
                        raise DataError(f"gold node {gold!r} not present in the graph")
                    try:
                        finite = all(map(math.isfinite, features))
                    except OverflowError as exc:  # an integer beyond the float64 range
                        raise DataError(f"field 'image_features': {exc}") from exc
                    if not finite:
                        raise DataError("field 'image_features': must be finite numbers")
                    if width is None:
                        width = len(features)
                    elif len(features) != width:
                        raise DataError(f"field 'image_features': {len(features)} numbers, "
                                        f"expected {width}")
                    examples.append(Example(features, tokens, label, gold))
                except DataError as exc:
                    raise DataError(f"{path}: line {line_no}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: no examples found")
    return examples
