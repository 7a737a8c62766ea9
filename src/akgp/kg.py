"""Knowledge graph ingestion: triple files to a node index and adjacency.

Triples arrive as tab-separated ``head<TAB>relation<TAB>tail`` lines. The
graph's adjacency is the symmetric binary edge pattern with self-loops,
row-normalized so each row sums to one, stored sparse as that pattern with
one scale per row, ``1 / (degree + 1)`` (memory grows with the edge count,
not N×N).
Relations do not type the adjacency. A graph is structure only and depends
on its triples alone; the learned node features are a model parameter
(:func:`akgp.model.init_model`).
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensor import CsrMatrix


class TripleParseError(ValueError):
    """A triple line is malformed; carries the 1-based line number, None when
    the file is not UTF-8 text. Its ``args`` are the line number, the message
    and the file's path, if known, so it pickles to the same error."""

    def __init__(self, line_no: int | None, message: str, path=None):
        super().__init__(line_no, message, path)
        self.line_no = line_no

    def __str__(self) -> str:
        line_no, message, path = self.args
        if line_no is not None:
            message = f"line {line_no}: {message}"
        return message if path is None else f"{path}: {message}"


Triple = tuple[str, str, str]


def parse_triples(source: str | Iterable[str]) -> list[Triple]:
    """Parse tab-separated triples, skipping blank lines and ``#`` comments.

    A string is split into lines where a text-mode file read splits it: at
    each line feed, carriage return, or the pair of them. Fields are stripped
    of surrounding whitespace. Duplicate triples are retained; deduplication
    happens in :func:`build_graph`.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    triples: list[Triple] = []
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        try:
            head, relation, tail = line.split("\t")
        except ValueError:
            n_fields = line.count("\t") + 1
            raise TripleParseError(
                line_no, f"expected 3 tab-separated fields, got {n_fields}") from None
        head, relation, tail = head.strip(), relation.strip(), tail.strip()
        if not (head and relation and tail):
            raise TripleParseError(line_no, "empty field")
        triples.append((head, relation, tail))
    return triples


def serialize_triples(triples: Iterable[Triple]) -> str:
    return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def load_triples(path) -> list[Triple]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_triples(fh)
    except UnicodeDecodeError as exc:
        raise TripleParseError(None, f"not UTF-8 text: {exc}", path) from exc
    except TripleParseError as exc:
        raise TripleParseError(exc.line_no, exc.args[1], path) from None


def save_triples(path, triples: Iterable[Triple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_triples(triples))


@dataclass
class KnowledgeGraph:
    """Node store with row-normalized sparse adjacency; ``adjacency`` row i
    sums to 1 (self-loops guarantee no zero row)."""

    node_ids: list[str]
    node_index: dict[str, int]
    adjacency: CsrMatrix

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def build_graph(triples: list[Triple]) -> KnowledgeGraph:
    """Materialize a graph from triples.

    Nodes are indexed in first-appearance order (head before tail). The
    adjacency is the binary symmetric edge matrix plus identity, divided
    row-wise by degree + 1, built in CSR form without a dense N×N step.
    """
    if not triples:
        raise ValueError("cannot build a graph from an empty triple list")
    node_index: dict[str, int] = {}
    # the node index of each head and tail, interleaved
    ends = np.array([node_index.setdefault(name, len(node_index))
                     for head, _, tail in triples for name in (head, tail)],
                    dtype=np.int64)
    node_ids = list(node_index)
    n = len(node_ids)

    heads, tails, loops = ends[0::2], ends[1::2], np.arange(n, dtype=np.int64)
    # one key per distinct (row, col) entry; sorted keys are row-sorted CSR
    # order. Repeats are dropped by hand because np.unique imports numpy.ma
    # on first use, which costs a small graph more memory than its adjacency.
    keys = np.sort(np.concatenate([heads * n + tails, tails * n + heads, loops * (n + 1)]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    rows, cols = np.divmod(keys, n)
    row_nnz = np.bincount(rows, minlength=n)
    adjacency = CsrMatrix(indptr=np.concatenate([[0], np.cumsum(row_nnz)]), indices=cols,
                          scale=1.0 / row_nnz)
    return KnowledgeGraph(node_ids=node_ids, node_index=node_index, adjacency=adjacency)


def subgraph_stats(graph: KnowledgeGraph) -> dict:
    """Node/edge counts and degree histogram over deduplicated undirected
    edges, self-loops excluded."""
    row_nnz = np.diff(graph.adjacency.indptr)
    degree = row_nnz - 1  # every row stores its self-loop once
    return {
        "n_nodes": graph.n_nodes,
        "n_edges": int(row_nnz.sum() - graph.n_nodes) // 2,
        "degree_histogram": dict(Counter(degree.tolist())),
    }
