"""A slow, dense reference for the debiased model and its objective.

Operators are n x n arrays built from the edge list, and each node's
context, routing and terms come from a loop over the nodes, as Algorithm 1
writes them: lines 4-10 for a layer, lines 11-15 for the five terms. It
shares no code with ``degfair`` but the degree encoding and reads
parameters through ``.data`` only. pytest does not collect this file.
"""

import numpy as np

from degfair.layers import degree_encoding_matrix


def adjacency(edges, n):
    """Symmetric 0/1 adjacency A of an edge list; self-loops and duplicates are dropped."""
    adj = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            adj[u, v] = adj[v, u] = 1.0
    return adj


def context_mean(adj, r):
    """Row v is the mean over v's r-hop context, the nonzeros of row v of (A+I)^r."""
    reach = np.linalg.matrix_power(adj + np.eye(len(adj)), r) > 0
    return reach / reach.sum(axis=1, keepdims=True)


def gcn_operator(adj):
    """D^-1/2 (A+I) D^-1/2, with D the row sums of A+I."""
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    return (adj + np.eye(len(adj))) * np.outer(inv_sqrt, inv_sqrt)


def sage_operator(adj):
    """The neighbour mean; an isolated node's row is zero."""
    deg = adj.sum(axis=1, keepdims=True)
    return np.divide(adj, deg, out=np.zeros_like(adj), where=deg > 0)


def gat_head(adj, h, head):
    """Row v: softmax over u in {v} + N(v) of leakyrelu(z_v . a_self + z_u . a_nbr), times z_u."""
    z, out = h @ head.w.data, np.zeros((len(adj), head.w.data.shape[1]))
    for v in range(len(adj)):
        closed = np.flatnonzero(adj[v] + np.eye(len(adj))[v])
        s = z[v] @ head.att_self.data[:, 0] + z[closed] @ head.att_nbr.data[:, 0]
        s = np.where(s > 0, s, 0.2 * s)
        e = np.exp(s - s.max())
        out[v] = e @ z[closed] / e.sum()
    return out


def film_context(ctx_v, net, scale_v, shift_v):
    """A node's debiasing context through ``net``: (scale_v + 1) * (ctx_v @ w + b) + shift_v."""
    return (scale_v + 1.0) * (ctx_v @ net.w.data + net.b.data[0]) + shift_v


def forward(adj, x, params, r, eps, low):
    """Probabilities and each layer's (context, scale rows, shift rows), one row per node.

    Node v adds ``eps`` times the context of its own group's net, the low
    one where ``low[v]`` (deg <= K). At eps 0 this is the base model.
    """
    deg, ctx_mean, h, pieces = adj.sum(axis=1), context_mean(adj, r), x, []
    for i, layer in enumerate(params.layers):
        omega = layer.omega
        if params.kind == "gcn":
            pre = gcn_operator(adj) @ h @ omega["w"].data
        elif params.kind == "sage":
            pre = h @ omega["w_self"].data + sage_operator(adj) @ h @ omega["w_neigh"].data
        else:
            pre = sum(gat_head(adj, h, head) for head in omega["heads"]) / len(omega["heads"])
        pre = pre + omega["b"].data
        ctx, enc = ctx_mean @ h, degree_encoding_matrix(deg, layer.film_scale.w.data.shape[0])
        scale, shift = (enc @ net.w.data + net.b.data for net in (layer.film_scale,
                                                                  layer.film_shift))
        for v in range(len(adj)):
            own = layer.debias_low if low[v] else layer.debias_high
            pre[v] += eps * film_context(ctx[v], own, scale[v], shift[v])
        if i < len(params.layers) - 1:
            h = np.maximum(pre, 0.0)
        else:
            h = np.exp(pre - pre.max(axis=1, keepdims=True))
            h /= h.sum(axis=1, keepdims=True)
        pieces.append((ctx, scale, shift))
    return h, pieces


def objective(probs, pieces, params, labels, train, low):
    """The five terms: l1 to l4 sum over training nodes, omega_reg over weight matrices."""
    low_tr, high_tr = train[low[train]], train[~low[train]]
    gap = probs[low_tr].mean(axis=0) - probs[high_tr].mean(axis=0)
    l3 = l4 = omega_reg = 0.0
    for layer, (ctx, scale, shift) in zip(params.layers, pieces):
        for v in train:
            other = layer.debias_high if low[v] else layer.debias_low
            l3 += np.sum(film_context(ctx[v], other, scale[v], shift[v]) ** 2)
            l4 += np.sum(scale[v] ** 2) + np.sum(shift[v] ** 2)
        omega = layer.omega
        mats = [omega[k] for k in ("w", "w_self", "w_neigh") if k in omega]
        mats += [t for head in omega.get("heads", []) for t in (head.w, head.att_self,
                                                                head.att_nbr)]
        mats += [net.w for net in (layer.debias_low, layer.debias_high, layer.film_scale,
                                   layer.film_shift)]
        omega_reg += sum(np.sum(w.data ** 2) for w in mats)
    l1 = -sum(np.log(max(probs[v, labels[v]], 1e-12)) for v in train)  # clamped before the log
    return {"l1": l1, "l2": gap @ gap, "l3": l3, "l4": l4, "omega_reg": omega_reg}
