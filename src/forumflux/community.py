"""Community detection via propinquity dynamics, plus modularity scoring.

The pairwise propinquity of (u, v) is adjacency + number of common neighbors.
Each iteration synchronously removes edges whose propinquity is <= alpha and
inserts non-edges whose propinquity is >= beta; communities are the connected
components of the final topology, filtered by a minimum size. The synchronous
two-phase update keeps results independent of pair evaluation order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations

from .errors import ConfigError, ForumFluxError


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


def _candidate_pairs(adjacency):
    """Pairs that are adjacent or share at least one neighbor."""
    pairs = set()
    for u, neigh in adjacency.items():
        for v in neigh:
            if u < v:
                pairs.add((u, v))
        for a, b in combinations(sorted(neigh), 2):
            pairs.add((a, b))
    return pairs


def _components(adjacency):
    seen = set()
    comps = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def detect_communities(graph, config=PropinquityConfig()):
    """Iterate the propinquity add/cut dynamic and return sized components.

    Stops on a fixed point, on a repeated topology (cycle), or after
    max_iterations; the last computed topology wins. Community ids are
    assigned in ascending order of smallest member user_id.
    """
    adjacency = graph.neighbors()
    seen_topologies = {frozenset(map(frozenset, graph.edges))}
    for _ in range(config.max_iterations):
        pairs = _candidate_pairs(adjacency)
        keep = set()
        for (u, v) in pairs:
            p = propinquity(adjacency, u, v)
            adjacent = v in adjacency[u]
            if adjacent and p > config.alpha:
                keep.add((u, v))
            elif not adjacent and p >= config.beta:
                keep.add((u, v))
        new_adj = {u: set() for u in adjacency}
        for (u, v) in keep:
            new_adj[u].add(v)
            new_adj[v].add(u)
        fingerprint = frozenset(map(frozenset, keep))
        adjacency = new_adj
        if fingerprint in seen_topologies:
            break
        seen_topologies.add(fingerprint)

    communities = []
    sized = [c for c in _components(adjacency) if len(c) >= config.min_community_size]
    for cid, comp in enumerate(sorted(sized, key=min)):
        communities.append(Community(
            snapshot_index=graph.snapshot_index,
            community_id=cid,
            members=frozenset(comp),
        ))
    return communities


def modularity(graph, communities):
    """Newman-Girvan Q = sum_i (e_ii - a_i^2) on the unweighted graph.

    Nodes outside every community count as singleton communities; a graph
    with no edges scores 0. Overlapping communities are rejected.
    """
    covered = set()
    for comm in communities:
        if comm.members & covered:
            raise ForumFluxError("overlapping communities are not allowed in modularity")
        if not comm.members <= graph.nodes:
            raise ForumFluxError("community members must be nodes of the graph")
        covered |= comm.members
    m = len(graph.edges)
    if m == 0:
        return 0.0
    assign = {}
    for i, comm in enumerate(communities):
        for u in comm.members:
            assign[u] = i
    next_id = len(communities)
    for u in sorted(graph.nodes - covered):
        assign[u] = next_id
        next_id += 1
    intra = [0] * next_id
    endpoints = [0] * next_id
    for (a, b) in graph.edges:
        if assign[a] == assign[b]:
            intra[assign[a]] += 1
        endpoints[assign[a]] += 1
        endpoints[assign[b]] += 1
    q = 0.0
    for i in range(next_id):
        e_ii = intra[i] / m
        a_i = endpoints[i] / (2 * m)
        q += e_ii - a_i * a_i
    return q


def communities_csv(communities):
    """CSV snapshot_index,community_id,user_id sorted by all three keys."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["snapshot_index", "community_id", "user_id"])
    writer.writerows(sorted((comm.snapshot_index, comm.community_id, user)
                            for comm in communities for user in comm.members))
    return buf.getvalue()
