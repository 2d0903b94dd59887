"""Community detection via propinquity dynamics, plus modularity scoring.

The propinquity of a node pair (u, v) is adjacency + number of common
neighbors (Zhang et al., KDD 2009). With the nodes in sorted order and the
topology held as a boolean matrix A, one iteration computes P = A·A + A for
every pair at once, then keeps an edge whose P > alpha and inserts a non-edge
whose P >= beta; the diagonal stays clear. A pair that is neither adjacent
nor shares a neighbor has P = 0 and, since beta > alpha >= 0, is never
inserted. The update is synchronous, so results do not depend on any pair
order. Communities are the connected components of the final matrix, over
the graph's node numbering (ascending user id), filtered by a minimum size.
Modularity labels each node with its community and sums array terms.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ForumFluxError, ParseError

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
    for _ in range(config.max_iterations):
        a = adj.astype(np.float32)
        p = a @ a + a
        adj = np.where(adj, p > config.alpha, p >= config.beta)
        np.fill_diagonal(adj, False)
        fingerprint = np.packbits(adj).tobytes()
        if fingerprint in seen_topologies:
            break
        seen_topologies.add(fingerprint)

    communities = []
    placed = np.zeros(len(order), dtype=bool)
    while not placed.all():
        # the first unplaced node is the smallest member of its component
        members = frontier = np.arange(len(order)) == placed.argmin()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members = members | frontier
        placed |= members
        if members.sum() >= config.min_community_size:
            communities.append(Community(graph.snapshot_index, len(communities),
                                         frozenset(order[i] for i in np.flatnonzero(members))))
    return communities


def modularity(graph, communities):
    """Newman-Girvan Q = sum_i (e_ii - a_i^2) on the unweighted graph.

    Nodes outside every community count as singleton communities, in ascending
    order after the communities; a graph with no edges scores 0. Overlapping
    communities are rejected. The terms are summed left to right.
    """
    label = np.full(len(graph.nodes), -1)
    for i, comm in enumerate(communities):
        at = [graph.nodes[u] for u in comm.members if u in graph.nodes]
        if (label[at] >= 0).any():
            raise ForumFluxError("overlapping communities are not allowed in modularity")
        if len(at) < len(comm.members):
            raise ForumFluxError("community members must be nodes of the graph")
        label[at] = i
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
