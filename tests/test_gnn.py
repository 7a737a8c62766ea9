"""Knowledge encoder: propagation semantics, equivariance, gradients."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import csr_from_dense, dense_adjacency, expand
from akgp import gnn
from akgp.gnn import GnnParams, encode_knowledge, gnn_layer
from akgp.kg import KnowledgeGraph, build_graph
from akgp.tensor import (
    Tape, Tensor, backward, fd_check, from_array, gather_rows, mul, relu, sum_all, uniform,
    xavier, zeros,
)


def small_params(features, d_h, d_e, seed=0, trainable=False):
    """Parameters over the node features ``features``, an (n, d_k) array or
    tensor, with xavier layer weights and zero biases."""
    features = features if isinstance(features, Tensor) else from_array(features)
    p = GnnParams(
        features=features,
        w1=xavier([features.shape[1], d_h], seed),
        b1=zeros([d_h]),
        w2=xavier([d_h, d_e], seed + 1),
        b2=zeros([d_e]),
    )
    if trainable:
        for t in vars(p).values():
            t.requires_grad_(True)
    return p


def two_node_mean():
    """The adjacency of one edge a-b, checked against its dense oracle."""
    triples = [("a", "r", "b")]
    g = build_graph(triples)
    assert np.array_equal(expand(g.adjacency), dense_adjacency(triples, g.node_index))
    assert np.allclose(expand(g.adjacency), [[0.5, 0.5], [0.5, 0.5]])
    return g.adjacency


def test_layer_identity_propagation():
    eye = csr_from_dense(np.eye(3, dtype=bool), np.ones(3))
    h = uniform([3, 4], -1, 1, 5)
    out = gnn_layer(eye, h, from_array(np.eye(4)), zeros([4]))
    assert np.allclose(out.data, h.data)


def test_layer_two_node_mean():
    a = two_node_mean()
    h = from_array([[2.0, 0.0], [0.0, 2.0]])
    out = gnn_layer(a, h, from_array(np.eye(2)), zeros([2]))
    assert np.allclose(out.data, [[1.0, 1.0], [1.0, 1.0]])


def test_layer_gradient_matches_fd():
    a = two_node_mean()
    h = uniform([2, 3], -1, 1, 2)
    b = zeros([4])

    def f(w):
        out = relu(gnn_layer(a, h, w, b))
        return sum_all(mul(out, out))

    report = fd_check(f, uniform([3, 4], -1, 1, 3))
    assert report.passed, str(report)


def test_zero_features_give_equal_rows():
    triples = [("a", "r", "b"), ("b", "r", "c")]
    g = build_graph(triples)
    p = small_params(np.zeros((3, 4)), 5, 6, seed=2)
    p.b1 = uniform([5], -1, 1, 7)
    p.b2 = uniform([6], -1, 1, 8)
    out = encode_knowledge(g, p)
    expected = np.maximum(p.b1.data, 0.0) @ p.w2.data + p.b2.data
    for row in out.data:
        assert np.allclose(row, expected, atol=1e-12)


def test_permutation_equivariance():
    triples = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("a", "r", "d")]
    g = build_graph(triples)
    p = small_params(xavier([4, 5], 3), 6, 4, seed=4)
    base = encode_knowledge(g, p).data

    perm = np.array([2, 0, 3, 1])
    pm = np.eye(4)[perm]
    dense = pm @ dense_adjacency(triples, g.node_index) @ pm.T
    permuted = KnowledgeGraph(
        node_ids=[g.node_ids[i] for i in perm],
        node_index={g.node_ids[i]: row for row, i in enumerate(perm)},
        adjacency=csr_from_dense(dense != 0, dense.max(axis=1)),
    )
    permuted_p = replace(p, features=Tensor(p.features.data[perm]))
    assert np.allclose(encode_knowledge(permuted, permuted_p).data, base[perm], atol=1e-9)


def test_isolated_identical_nodes_match():
    g = build_graph([("a", "r", "a"), ("b", "r", "b")])
    features = np.tile(xavier([2, 3], 0).data[0], (2, 1))
    out = encode_knowledge(g, small_params(features, 4, 5, seed=6))
    assert np.allclose(out.data[0], out.data[1], atol=1e-12)


def test_chain_matches_step_by_step_oracle():
    triples = [("a", "r", "b"), ("b", "r", "c")]
    g = build_graph(triples)
    p = small_params(xavier([3, 4], 9), 5, 3, seed=10)

    a, x = dense_adjacency(triples, g.node_index), p.features.data
    h1 = np.maximum(a @ x @ p.w1.data + p.b1.data, 0.0)
    oracle = a @ h1 @ p.w2.data + p.b2.data
    assert np.allclose(encode_knowledge(g, p).data, oracle, atol=1e-12)


def test_full_gradient_paths_pass_fd():
    triples = [("a", "r", "b"), ("b", "r", "c")]
    g = build_graph(triples)
    p = small_params(xavier([3, 3], 11), 4, 3, seed=12)

    def loss_wrt_features(x):
        out = encode_knowledge(g, replace(p, features=x))
        return sum_all(mul(out, out))

    assert fd_check(loss_wrt_features, Tensor(p.features.data.copy())).passed

    def loss_wrt_w2(w):
        probe = replace(p, w2=w)
        out = encode_knowledge(g, probe)
        return sum_all(mul(out, out))

    assert fd_check(loss_wrt_w2, Tensor(p.w2.data.copy())).passed


def held_bytes(obj, seen=None) -> int:
    """Bytes of every array ``obj`` holds, found through its attributes and
    the items of its lists, tuples and dicts; each object counts once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, (list, tuple)):
        obj = list(getattr(obj, "__dict__", {}).values())
    return sum(held_bytes(item, seen) for item in obj)


def test_large_chain_stays_sparse():
    # dense, this adjacency alone would be 20,000^2 float64 = 3.2 GB
    n = 20_000
    triples = [(f"n{i}", "r", f"n{i + 1}") for i in range(n - 1)]
    g = build_graph(triples)
    assert held_bytes(g.adjacency) < 2_000_000
    p = small_params(xavier([n, 4], 0), 5, 3, seed=13, trainable=True)
    with Tape() as tape:
        out = encode_knowledge(g, p)
        loss = sum_all(mul(out, out))
    backward(loss, tape)
    assert out.shape == (n, 3)
    assert p.features.grad.shape == (n, 4) and np.all(np.isfinite(p.features.grad))
    assert np.any(p.w1.grad != 0.0)


def _random_graph(n, hubs, medium, edges, rng):
    """Triples over n nodes: random edges (short rows), stars of 9 to 16
    entries, and hubs of 129 or more entries where n allows."""
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, i) for i in range(n)] + [tuple(rng.integers(n, size=2)) for _ in range(edges)]
    for size in list(hubs) + list(rng.integers(8, 16, size=medium)):
        centre = rng.integers(n)
        pairs += [(centre, leaf) for leaf in rng.choice(n, min(size, n), replace=False)]
    return build_graph([(names[a], "r", names[b]) for a, b in pairs])


def _leaf_grads(graph, params, rows, picks, weights):
    """Embeddings the loss reads and every leaf gradient of a loss of
    ``picks`` rows: of the whole result, or of its ``rows`` alone."""
    leaves = list(vars(params).values())
    for t in leaves:
        t.requires_grad_(False).requires_grad_(True)
    with Tape() as tape:
        if rows is None:
            out = encode_knowledge(graph, params)
        else:
            out = encode_knowledge(graph, params, graph.adjacency.row_block(rows))
        picked = gather_rows(out, picks)
        loss = sum_all(mul(picked, weights))
    backward(loss, tape)
    return [picked.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), hubs=st.lists(st.integers(129, 140), max_size=2),
       medium=st.integers(0, 6), edges=st.integers(0, 400), seed=st.integers(0, 2**32 - 1),
       dims=st.sampled_from([(3, 4, 5), (16, 32, 32)]), share=st.floats(0.0, 1.0),
       fill=st.sampled_from(["finite", "nan", "inf", "overflow"]))
def test_encoded_rows_bit_equal_to_the_whole_encoding(n, hubs, medium, edges, seed, dims,
                                                      share, fill):
    rng = np.random.default_rng(seed)
    graph = _random_graph(n, hubs, medium, edges, rng)
    d_k, d_h, d_e = dims
    n = graph.n_nodes
    params = GnnParams(Tensor(rng.uniform(-1.0, 1.0, (n, d_k))),
                       xavier([d_k, d_h], seed % 1000), uniform([d_h], -1, 1, 1),
                       xavier([d_h, d_e], 2), uniform([d_e], -1, 1, 3))
    if fill == "overflow":  # finite inputs whose hidden rows overflow
        params.features.data *= 1e300
        params.w1.data *= 1e10
    elif fill != "finite":
        params.features.data[rng.integers(n), rng.integers(d_k)] = {"nan": np.nan, "inf": np.inf}[fill]
    assert gnn._rows_stay_finite(graph, params) == (fill == "finite")
    rows = np.flatnonzero(rng.random(n) < share)
    if rows.size == 0:
        rows = np.array([rng.integers(n)])
    picks = rng.integers(len(rows), size=2 * len(rows) + 1)  # repeats, as a loss's
    weights = Tensor(rng.uniform(-1.0, 1.0, (len(picks), d_e)))
    with np.errstate(all="ignore"):
        whole = _leaf_grads(graph, params, None, rows[picks], weights)
        part = _leaf_grads(graph, params, rows, picks, weights)
    assert part == whole
