"""Walk through the graph layer: degrees, contexts, and group partitions.

Run with:  python3 demos/degree_statistics.py
"""

import numpy as np

from degfair.graphs import (
    build_graph,
    generalized_degree,
    local_contexts,
    mean_degree,
    partition_contrast,
    partition_top_bottom,
    synth_generate,
)

# A tiny hand-made graph: a path 0-1-2 plus a pendant 3 on the middle node.
edges = np.array([(0, 1), (1, 2), (1, 3)])
g = build_graph(edges, np.zeros((4, 2)), np.zeros(4, dtype=np.int64), num_classes=1)

print("== one- and two-hop generalized degrees")
print("deg_1 =", generalized_degree(g, 1))  # plain degrees
print("deg_2 =", generalized_degree(g, 2))  # number of 2-walks per node

# deg_2 counts walks, not distinct nodes: node 0 reaches {0, 2, 3} in two
# steps via node 1, so its count is 3 even though it has a single neighbor.
ball = local_contexts(g, 2)  # the boolean CSR pattern of (A+I)^2
print("2-hop ball around node 0:", ball.indices[ball.indptr[0] : ball.indptr[1]])

print("\n== long-tailed synthetic graph with planted degree bias")
big = synth_generate(n=300, attach=2, label_bias=0.9, feat_dim=8, seed=7)
deg = generalized_degree(big, 1)
print(f"nodes={big.num_nodes} edges={big.num_edges} "
      f"deg min/mean/max = {deg.min():.0f}/{deg.mean():.2f}/{deg.max():.0f}")

# The structural contrast splits everyone at the mean degree: low-degree
# nodes share one set of debiasing parameters, high-degree nodes the other.
K = mean_degree(big)
contrast = partition_contrast(deg, K)
print(f"contrast at K={K:.2f}: |low|={len(contrast.groups[0])} "
      f"|high|={len(contrast.groups[1])}")

# Evaluation groups are the extremes: bottom and top 20% by degree.
extremes = partition_top_bottom(deg, 0.2)
g0, g1 = extremes.groups
print(f"bottom-20% mean degree: {deg[g0].mean():.2f}, "
      f"top-20% mean degree: {deg[g1].mean():.2f}")
print(f"label rate bottom vs top: {big.labels[g0].mean():.2f} vs "
      f"{big.labels[g1].mean():.2f}  <- the planted bias")
