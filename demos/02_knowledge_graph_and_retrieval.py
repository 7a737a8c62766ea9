"""From triple text to node embeddings to cosine retrieval.

Run:  python demos/02_knowledge_graph_and_retrieval.py
"""

import numpy as np

from akgp.gnn import GnnParams, encode_knowledge
from akgp.kg import build_graph, parse_triples, subgraph_stats
from akgp.retrieval import retrieve_top1, retrieve_topk, sample_negatives_batch
from akgp.rng import Rng
from akgp.tensor import from_array, xavier, zeros

TRIPLES = """\
# a small commonsense fragment
cat\tis_a\tanimal
dog\tis_a\tanimal
cat\thas\twhiskers
dog\tchases\tcat
animal\tneeds\tfood
"""

triples = parse_triples(TRIPLES)
print("parsed triples:", triples)

graph = build_graph(triples)
print("\nnodes in first-appearance order:", graph.node_ids)
adjacency = graph.adjacency  # sparse: row i's entries are values[indptr[i]:indptr[i+1]]
print("adjacency row sums:", np.add.reduceat(adjacency.values, adjacency.indptr[:-1]).round(9))
print("stats:", subgraph_stats(graph))

params = GnnParams(  # the learned node features are a parameter, like the weights
    features=xavier([graph.n_nodes, 8], 11),
    w1=xavier([8, 12], 1), b1=zeros([12]),
    w2=xavier([12, 6], 2), b2=zeros([6]),
)
embeddings = encode_knowledge(graph, params)
print("\nembedding matrix shape:", embeddings.shape)

# neighbors end up closer than strangers after two propagation rounds
query = from_array(embeddings.data[graph.node_index["cat"]])
print("\ntop-3 nodes nearest to 'cat':")
for res in retrieve_topk(query, embeddings, 3):
    print(f"  {graph.node_ids[res.node_index]:8s} similarity {res.similarity:+.4f}")

best = retrieve_top1(query, embeddings)
print("top-1:", graph.node_ids[best.node_index])

rng = Rng(5)
negs = sample_negatives_batch([best.node_index], graph.n_nodes, 3, rng)[0]
print("three negatives for the contrastive loss:", [graph.node_ids[i] for i in negs])
