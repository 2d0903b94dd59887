"""Closeness and betweenness over CSR adjacency, in one numpy kernel.

A BFS source reaches only its own connected component, so the kernel works per
component: a stable sort on `component_labels` makes each a contiguous CSR slice,
nodes in ascending order, and components of one node are skipped. Within one,
Brandes' algorithm (2001) runs level by level for a block of BFS sources at once:
a level's shortest-path counts are the previous level's summed over each node's
neighbours (a gather over `indices` reduced per node with `np.add.reduceat`), and
dependencies flow back through the same gather. A block's (sources x nodes) and
(sources x edge slots) arrays stay within _BLOCK_ELEMENTS elements, so work and
memory are O(block * largest component); no BLAS routine is called. Path counts
are exact integers in float64. Closeness is (r/(n-1)) * (r/sum_d), r the reachable
count and n the whole graph's; betweenness is the ordered-pair sum halved. The
same labels give `community.detect_communities` its communities, the components of
its final topology.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ELEMENTS = 1 << 16


def active_backend():
    """Name of the centrality implementation."""
    return "numpy"


def component_labels(indptr, indices):
    """Per node, the smallest node of its component: min-label propagation, pointer jumping."""
    linked = np.flatnonzero(np.diff(indptr))
    low, old = np.arange(indptr.shape[0] - 1), None
    while not np.array_equal(low, old):
        old, low = low, low.copy()
        low[linked] = np.minimum(low[linked], np.minimum.reduceat(old[indices], indptr[linked]))
        low = low[low]  # a label names a node of the same component: take that node's label
    return low


def centrality_csr(indptr, indices):
    """(closeness, betweenness) arrays for a CSR undirected adjacency."""
    n = indptr.shape[0] - 1
    closeness, betweenness = np.zeros(n), np.zeros(n)
    label = component_labels(indptr, indices)
    order = np.argsort(label, kind="stable")  # component by component, nodes ascending
    position = np.argsort(order)  # each node's place in that order
    degree = np.diff(indptr)[order]
    ptr = np.concatenate([[0], np.cumsum(degree)])  # the CSR of the nodes in that order
    nbr = position[indices[np.repeat(indptr[order] - ptr[:-1], degree) + np.arange(indices.size)]]
    bounds = np.flatnonzero(np.diff(label[order], prepend=-1, append=n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo > 1:
            closeness[order[lo:hi]], betweenness[order[lo:hi]] = _component_centrality(
                ptr[lo:hi + 1] - ptr[lo], nbr[ptr[lo]:ptr[hi]] - lo, n)
    return closeness, betweenness


def _component_centrality(indptr, indices, n_graph):
    """centrality_csr of a connected graph of 2+ nodes, in a graph of n_graph nodes."""
    n = indptr.shape[0] - 1
    closeness, betweenness = np.zeros(n), np.zeros(n)

    def neighbour_sum(x):
        """out[:, v] = sum of x[:, w] over the neighbours w of v; every node has one."""
        return np.add.reduceat(x[:, indices], indptr[:-1], axis=1)

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
        closeness[sources] = ((n - 1) / (n_graph - 1)) * ((n - 1) / dist.sum(axis=1))  # r = n-1

        delta = np.zeros_like(sigma)
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == d)
            parents = dist == d - 1
            delta[parents] = sigma[parents] * neighbour_sum(share)[parents]
        betweenness += delta.sum(axis=0)
    return closeness, 0.5 * betweenness
