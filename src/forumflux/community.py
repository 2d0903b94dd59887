"""Community detection via propinquity dynamics, plus modularity scoring.

The propinquity of a node pair (u, v) is adjacency + number of common
neighbors (Zhang et al., KDD 2009). With the nodes in sorted order and the
topology held as a boolean matrix A, one iteration computes P = A·A + A for
every pair at once, then keeps an edge whose P > alpha and inserts a non-edge
whose P >= beta; the diagonal stays clear. A pair that is neither adjacent
nor shares a neighbor has P = 0 and, since beta > alpha >= 0, is never
inserted. The update is synchronous, so results do not depend on any pair
order. Communities are the connected components of the final matrix, labelled
by `_kernels.component_labels` (as in centrality) over its CSR form in the
graph's node numbering (ascending user id), and filtered by a minimum size.
Modularity labels each node with its community and sums array terms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, ParseError

COMMUNITY_COLUMNS = ["snapshot_index", "community_id", "user_id"]


@dataclass(frozen=True)
class Community:
    snapshot_index: int
    community_id: int
    members: frozenset


@dataclass(frozen=True)
class PropinquityConfig:
    alpha: int = 1
    beta: int = 3
    max_iterations: int = 20
    min_community_size: int = 3

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError(f"alpha must be non-negative, got {self.alpha}")
        if self.beta <= self.alpha:
            raise ConfigError(f"beta must exceed alpha, got beta={self.beta} alpha={self.alpha}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if self.min_community_size < 1:
            raise ConfigError("min_community_size must be positive")


def propinquity(adjacency, u, v):
    """Adjacency + common-neighbor count for a node pair in a topology."""
    if u == v:
        raise ConfigError(f"propinquity is undefined for a node with itself ({u!r})")
    a = 1 if v in adjacency[u] else 0
    return a + len(adjacency[u] & adjacency[v])


def detect_communities(graph, config=PropinquityConfig()):
    """Iterate the propinquity add/cut dynamic and return sized components.

    Stops on a fixed point, on a repeated topology (cycle), or after
    max_iterations; the last computed topology wins. P is a float32 matmul,
    exact for counts below 2**24. Community ids are assigned in ascending
    order of smallest member user_id.
    """
    order = list(graph.nodes)
    adj = np.zeros((len(order), len(order)), dtype=bool)
    adj[np.repeat(np.arange(len(order)), np.diff(graph.indptr)), graph.indices] = True
    seen_topologies = {np.packbits(adj).tobytes()}
    # P <= n - 1, so thresholds capped at n decide alike and cast to float32 without overflow
    alpha, beta = min(config.alpha, len(order)), min(config.beta, len(order))
    for _ in range(config.max_iterations):
        a = adj.astype(np.float32)
        p = a @ a + a
        adj = np.where(adj, p > alpha, p >= beta)
        np.fill_diagonal(adj, False)
        fingerprint = np.packbits(adj).tobytes()
        if fingerprint in seen_topologies:
            break
        seen_topologies.add(fingerprint)

    rows, cols = np.nonzero(adj)
    label = _kernels.component_labels(np.searchsorted(rows, np.arange(len(order) + 1)), cols)
    roots, sizes = np.unique(label, return_counts=True)  # a root is its component's least node
    return [Community(graph.snapshot_index, cid,
                      frozenset(order[i] for i in np.flatnonzero(label == root)))
            for cid, root in enumerate(roots[sizes >= config.min_community_size])]


def modularity(graph, communities):
    """Newman-Girvan Q = sum_i (e_ii - a_i^2) on the unweighted graph.

    The communities are disjoint sets of nodes of the graph, as
    communities_from_csv(fh, nodes) checks. Nodes outside every community count
    as singleton communities, in ascending order after the communities; a graph
    with no edges scores 0. The terms are summed left to right.
    """
    label = np.full(len(graph.nodes), -1)
    for i, comm in enumerate(communities):
        label[[graph.nodes[u] for u in comm.members]] = i
    m = graph.indices.size // 2
    if m == 0:
        return 0.0
    uncovered = label < 0
    label[uncovered] = len(communities) + np.arange(uncovered.sum())
    src = label[np.repeat(np.arange(label.size), np.diff(graph.indptr))]  # each edge both ways
    dst = label[graph.indices]
    k = len(communities) + uncovered.sum()
    intra = np.bincount(src[src == dst], minlength=k) // 2
    a = np.bincount(src, minlength=k) / (2 * m)
    return float(np.cumsum(intra / m - a * a)[-1])


def communities_csv(communities):
    """CSV snapshot_index,community_id,user_id sorted by all three keys."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COMMUNITY_COLUMNS)
    writer.writerows(sorted((comm.snapshot_index, comm.community_id, user)
                            for comm in communities for user in comm.members))
    return buf.getvalue()


def communities_from_csv(fh, nodes=None):
    """Inverse of communities_csv: {snapshot_index: communities by community_id}. With
    nodes, {snapshot_index: the nodes of its graph}, the communities must partition
    nodes of their snapshot's graph, as modularity needs: a user in two communities of
    one snapshot, or not a node of its graph, is a ParseError."""
    reader = csv.reader(fh)
    if next(reader, None) != COMMUNITY_COLUMNS:
        raise ParseError(f"community list header must be {','.join(COMMUNITY_COLUMNS)}")
    members, owner = {}, {}  # (snapshot, community) -> users, (snapshot, user) -> community
    for row in reader:
        try:
            snap, cid, user = row
            key = (int(snap), int(cid))
        except ValueError:
            raise ParseError(f"malformed community row at line {reader.line_num}") from None
        if nodes is not None:
            if user not in nodes.get(key[0], ()):
                raise ParseError(f"user {user!r} is not a node of the graph of snapshot "
                                 f"{key[0]} at line {reader.line_num}")
            if owner.setdefault((key[0], user), key[1]) != key[1]:
                raise ParseError(f"user {user!r} is in two communities of snapshot {key[0]} "
                                 f"at line {reader.line_num}")
        members.setdefault(key, set()).add(user)
    by_snapshot = {}
    for (snap, cid), users in sorted(members.items()):
        by_snapshot.setdefault(snap, []).append(Community(snap, cid, frozenset(users)))
    return by_snapshot
