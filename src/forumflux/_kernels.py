"""Closeness and betweenness over CSR adjacency, in one numpy kernel.

Brandes' algorithm (2001) runs level by level for a block of BFS sources at
once: a level's shortest-path counts are the previous level's counts summed
over each node's neighbours (a gather over `indices` reduced per node with
`np.add.reduceat`), and dependencies flow back through the same gather. Each
block's (sources x nodes) and (sources x edge slots) arrays stay within
_BLOCK_ELEMENTS elements, so memory is O(block * (n + nnz)), never n x n, and
no BLAS routine is called. Path counts are exact integers in float64.
Closeness uses the reachable-count correction (r/(n-1)) * (r/sum_d) so
disconnected snapshot graphs stay finite; betweenness is the unnormalized
ordered-pair sum halved for undirectedness.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ELEMENTS = 1 << 16


def active_backend():
    """Name of the centrality implementation."""
    return "numpy"


def centrality_csr(indptr, indices):
    """(closeness, betweenness) arrays for a CSR undirected adjacency."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.shape[0] - 1
    closeness, betweenness = np.zeros(n), np.zeros(n)
    if indices.size == 0:
        return closeness, betweenness
    linked = np.flatnonzero(np.diff(indptr))

    def neighbour_sum(x):
        """out[:, v] = sum of x[:, w] over the neighbours w of v."""
        out = np.zeros_like(x)
        out[:, linked] = np.add.reduceat(x[:, indices], indptr[linked], axis=1)
        return out

    block = max(1, _BLOCK_ELEMENTS // max(n, indices.size))
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        dist = np.full((sources.size, n), -1, dtype=np.int64)
        dist[np.arange(sources.size), sources] = 0
        sigma = (dist == 0).astype(np.float64)
        depth = 0
        while True:
            paths = neighbour_sum(np.where(dist == depth, sigma, 0.0))
            found = (dist < 0) & (paths > 0)
            if not found.any():
                break
            depth += 1
            dist[found], sigma[found] = depth, paths[found]

        reached = (dist >= 0).sum(axis=1) - 1
        some = reached > 0
        total = np.maximum(dist, 0).sum(axis=1)[some]
        closeness[sources[some]] = (reached[some] / (n - 1)) * (reached[some] / total)

        delta = np.zeros_like(sigma)
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == d)
            parents = dist == d - 1
            delta[parents] = sigma[parents] * neighbour_sum(share)[parents]
        betweenness += delta.sum(axis=0)
    betweenness *= 0.5
    return closeness, betweenness
