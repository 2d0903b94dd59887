import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from forumflux.community import (Community, PropinquityConfig, communities_csv,
                                 detect_communities, modularity, propinquity)
from forumflux.errors import ConfigError

from conftest import TWO_TRIANGLES_BRIDGE, make_community, make_graph, neighbors


def adjacency_of(edges, extra_nodes=()):
    return neighbors(make_graph(edges, extra_nodes=extra_nodes))


def reference_step(adjacency, config):
    """One synchronous update over every pair that is adjacent or shares a neighbor."""
    pairs = {(u, v) for u, neigh in adjacency.items() for v in neigh if u < v}
    for neigh in adjacency.values():
        pairs.update(combinations(sorted(neigh), 2))
    new = {u: set() for u in adjacency}
    for (u, v) in pairs:
        p = propinquity(adjacency, u, v)
        if p > config.alpha if v in adjacency[u] else p >= config.beta:
            new[u].add(v)
            new[v].add(u)
    return new


def propinquity_reference(graph, config):
    """The propinquity dynamic as a set-based loop over candidate pairs.

    Keeps edges with propinquity > alpha and inserts non-edges with
    propinquity >= beta; stops on a fixed point, a repeated topology (the
    input graph counts as seen) or max_iterations.
    """
    adjacency = neighbors(graph)
    seen = {frozenset(map(frozenset, graph.edges))}
    for _ in range(config.max_iterations):
        adjacency = reference_step(adjacency, config)
        fingerprint = frozenset(frozenset((u, v)) for u in adjacency for v in adjacency[u])
        if fingerprint in seen:
            break
        seen.add(fingerprint)
    comps, done = [], set()
    for start in sorted(adjacency):
        if start in done:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adjacency[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        done |= comp
        if len(comp) >= config.min_community_size:
            comps.append(frozenset(comp))
    return sorted(comps, key=min)


def random_graph(rng, n, p):
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(nodes, 2) if rng.random() < p]
    return make_graph(edges, extra_nodes=nodes)


def star_graph(n_leaves, extra_edges=()):
    return make_graph([("hub", f"l{i:02d}") for i in range(n_leaves)] + list(extra_edges))


def hub_graph(rng, n, n_hubs, p):
    """Hubs linked to most nodes, sparse links elsewhere."""
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if rng.random() < (0.8 if i < n_hubs else p)]
    return make_graph(edges, extra_nodes=nodes)


def modularity_reference(graph, communities):
    """Q by a loop over the edges: communities first, then each uncovered node in
    ascending order, the terms added left to right."""
    m = len(graph.edges)
    if m == 0:
        return 0.0
    assign = {}
    for i, comm in enumerate(communities):
        for u in comm.members:
            assign[u] = i
    next_id = len(communities)
    for u in sorted(graph.nodes.keys() - assign.keys()):
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


def random_partial_partition(rng, nodes):
    """Communities over a random subset of nodes, in shuffled id order; some nodes stay
    uncovered and some communities are empty."""
    k = int(rng.integers(1, len(nodes) + 2))
    assignment = rng.integers(-1, k, size=len(nodes))  # -1: uncovered
    return [make_community([u for u, c in zip(nodes, assignment) if c == cid], cid)
            for cid in rng.permutation(k).tolist()]


def assert_matches_reference(graph, config):
    got = detect_communities(graph, config)
    assert [c.members for c in got] == propinquity_reference(graph, config)
    assert [c.community_id for c in got] == list(range(len(got)))
    assert all(c.snapshot_index == graph.snapshot_index for c in got)


class TestPropinquity:
    def test_isolated_pair(self):
        adj = adjacency_of([], extra_nodes=["a", "b"])
        assert propinquity(adj, "a", "b") == 0

    def test_triangle_edge(self):
        adj = adjacency_of([("a", "b"), ("a", "c"), ("b", "c")])
        assert propinquity(adj, "a", "b") == 2

    def test_bridge_edge(self):
        adj = adjacency_of(TWO_TRIANGLES_BRIDGE)
        assert propinquity(adj, "c", "d") == 1

    def test_same_node_rejected(self):
        adj = adjacency_of([("a", "b")])
        with pytest.raises(ConfigError):
            propinquity(adj, "a", "a")


DEFAULT = PropinquityConfig(alpha=1, beta=3, max_iterations=20, min_community_size=3)


class TestDetectCommunities:
    def test_empty_graph(self):
        assert detect_communities(make_graph([]), DEFAULT) == []

    def test_two_triangles_bridge_splits(self):
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        comms = detect_communities(g, DEFAULT)
        assert [c.members for c in comms] == [frozenset("abc"), frozenset("def")]
        assert [c.community_id for c in comms] == [0, 1]

    def test_k4_stays_whole(self):
        g = make_graph([(a, b) for a, b in combinations("abcd", 2)])
        comms = detect_communities(g, DEFAULT)
        assert [c.members for c in comms] == [frozenset("abcd")]

    def test_min_size_filters(self):
        g = make_graph([(a, b) for a, b in combinations("abcd", 2)])
        assert detect_communities(g, PropinquityConfig(min_community_size=5)) == []

    def test_deterministic_over_repeats(self):
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        runs = [detect_communities(g, DEFAULT) for _ in range(10)]
        assert all(r == runs[0] for r in runs)

    def test_terminates_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            edges = [(f"n{a}", f"n{b}") for a, b in combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = make_graph(edges, extra_nodes=[f"n{i}" for i in range(n)])
            comms = detect_communities(g, PropinquityConfig(max_iterations=5))
            members = [u for c in comms for u in c.members]
            assert len(members) == len(set(members))  # disjoint
            assert all(c.members <= g.nodes.keys() for c in comms)

    def test_alpha_monotone_cut_at_first_step(self):
        # Raising alpha can only remove more edges in the first iteration.
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            edges = [(f"n{a}", f"n{b}") for a, b in combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = make_graph(edges, extra_nodes=[f"n{i}" for i in range(n)])
            adj = neighbors(g)
            survivors = []
            for alpha in (0, 1, 2, 3):
                kept = {e for e in g.edges if propinquity(adj, *e) > alpha}
                survivors.append(kept)
            for smaller_alpha, larger_alpha in zip(survivors, survivors[1:]):
                assert larger_alpha <= smaller_alpha

    @pytest.mark.parametrize("huge, large", [((1, 10**39), (1, 10**6)),
                                             ((10**39, 10**39 + 1), (10**6, 10**6 + 1))])
    def test_thresholds_beyond_float32_decide_as_large_ones(self, huge, large):
        # P <= n - 1, so 10**6 is already beyond any P; 10**39 overflows a float32 cast
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (detect_communities(g, PropinquityConfig(*huge))
                    == detect_communities(g, PropinquityConfig(*large)))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            PropinquityConfig(alpha=3, beta=3)
        with pytest.raises(ConfigError):
            PropinquityConfig(max_iterations=0)


class TestMatrixStepMatchesReference:
    """detect_communities against the set-based loop it replaced."""

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 81))
            g = random_graph(rng, n, float(rng.uniform(0.02, 0.5)))
            assert_matches_reference(g, PropinquityConfig(min_community_size=int(rng.integers(1, 5))))

    def test_random_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)))
            alpha = int(rng.integers(0, 4))
            config = PropinquityConfig(alpha=alpha, beta=alpha + int(rng.integers(1, 5)),
                                       max_iterations=int(rng.integers(1, 6)),
                                       min_community_size=int(rng.integers(1, 4)))
            assert_matches_reference(g, config)

    def test_stars_and_hubs(self):
        rng = np.random.default_rng(13)
        for n_leaves in (1, 2, 3, 10, 40):
            for config in (DEFAULT, PropinquityConfig(alpha=0, beta=1, min_community_size=1)):
                assert_matches_reference(star_graph(n_leaves), config)
                assert_matches_reference(
                    star_graph(n_leaves, [(f"l{i:02d}", f"l{i + 1:02d}")
                                          for i in range(0, n_leaves - 1, 2)]), config)
        for _ in range(20):
            g = hub_graph(rng, int(rng.integers(10, 70)), int(rng.integers(1, 5)), 0.05)
            assert_matches_reference(g, PropinquityConfig(alpha=int(rng.integers(0, 3)),
                                                          beta=3, min_community_size=1))

    def test_iteration_cap(self):
        # a 2-leaf star (path) closes into a triangle at alpha=0, beta=1 and a
        # dense random graph keeps moving for several steps
        rng = np.random.default_rng(14)
        graphs = [star_graph(2), star_graph(12)] + [random_graph(rng, 30, 0.3) for _ in range(10)]
        for g in graphs:
            for cap in (1, 2):
                for alpha, beta in ((0, 1), (1, 3), (2, 4)):
                    assert_matches_reference(g, PropinquityConfig(
                        alpha=alpha, beta=beta, max_iterations=cap, min_community_size=1))

    def test_cap_decides_result(self):
        # path a-b-c at alpha=0, beta=1: step 1 inserts a-c, so a cap of 1
        # already gives the triangle; with beta=2 the path is a fixed point
        path = make_graph([("a", "b"), ("b", "c")])
        config = PropinquityConfig(alpha=0, beta=1, max_iterations=1, min_community_size=1)
        assert [c.members for c in detect_communities(path, config)] == [frozenset("abc")]
        assert_matches_reference(path, config)
        # a square at alpha=1: step 1 cuts every edge (propinquity 1) and inserts
        # both diagonals (2 common neighbors); step 2 cuts them again
        square = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        for cap in (1, 2, 3):
            cfg = PropinquityConfig(alpha=1, beta=2, max_iterations=cap, min_community_size=1)
            assert_matches_reference(square, cfg)
        step1 = PropinquityConfig(alpha=1, beta=2, max_iterations=1, min_community_size=2)
        assert [c.members for c in detect_communities(square, step1)] == \
            [frozenset("ac"), frozenset("bd")]
        assert detect_communities(square, replace(step1, max_iterations=2)) == []

    def test_cycle_stops_on_repeated_topology(self):
        # at alpha=1, beta=2 this graph goes to another topology and back
        g = make_graph([("a", "b"), ("a", "e"), ("a", "f"), ("b", "e"),
                        ("c", "d"), ("c", "e"), ("c", "f"), ("d", "f")])
        for min_size in (1, 3):
            config = PropinquityConfig(alpha=1, beta=2, min_community_size=min_size)
            once = reference_step(neighbors(g), config)
            assert once != neighbors(g) and reference_step(once, config) == neighbors(g)
            for cap in (1, 2, 3, 4, 20):
                assert_matches_reference(g, replace(config, max_iterations=cap))
        rng = np.random.default_rng(15)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(4, 16)), 0.3)
            assert_matches_reference(g, PropinquityConfig(alpha=1, beta=2, max_iterations=20,
                                                          min_community_size=1))

    def test_iterations_only_split_components(self):
        # an inserted pair shares a neighbor, so each step refines the
        # partition; a cycle therefore ends on the partition it started from
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(4, 40)), 0.2)
            coarse = None
            for cap in range(1, 6):
                config = PropinquityConfig(alpha=1, beta=2, max_iterations=cap,
                                           min_community_size=1)
                fine = [c.members for c in detect_communities(g, config)]
                if coarse is not None:
                    assert all(any(f <= c for c in coarse) for f in fine)
                coarse = fine

    def test_one_step_splits_into_pieces_of_mixed_size(self):
        # K4 k1..k4, triangle b1..b3 and pendants: at alpha=1 the step cuts
        # every edge without a common neighbour, leaving pieces of 4, 3 and 1
        # nodes; a0, a singleton, is the smallest node of the graph
        g = make_graph([*combinations(["k1", "k2", "k3", "k4"], 2),
                        *combinations(["b1", "b2", "b3"], 2),
                        ("k4", "b1"), ("k1", "z1"), ("z1", "z2"), ("a0", "b2")])
        pieces = [frozenset(["a0"]), frozenset(["b1", "b2", "b3"]),
                  frozenset(["k1", "k2", "k3", "k4"]), frozenset(["z1"]), frozenset(["z2"])]
        for cap in (1, 20):
            for min_size in (1, 2, 3, 4, 5):
                config = PropinquityConfig(max_iterations=cap, min_community_size=min_size)
                assert_matches_reference(g, config)
                assert [c.members for c in detect_communities(g, config)] == \
                    [piece for piece in pieces if len(piece) >= min_size]

    def test_alpha_zero_large_beta_isolated_nodes(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 30)), 0.15)
            g = make_graph(list(g.edges), extra_nodes=set(g.nodes) | {"zz0", "zz1"})
            for config in (PropinquityConfig(alpha=0, beta=1, min_community_size=1),
                           PropinquityConfig(alpha=0, beta=1000, min_community_size=1),
                           PropinquityConfig(alpha=5, beta=1000, min_community_size=1),
                           PropinquityConfig(alpha=0, beta=2, min_community_size=2)):
                got = detect_communities(g, config)
                assert [c.members for c in got] == propinquity_reference(g, config)
                if config.min_community_size == 1:
                    assert {frozenset(["zz0"]), frozenset(["zz1"])} <= {c.members for c in got}

    def test_disjoint_unions_interleave_by_least_member(self):
        # sparse random graphs on disjoint, shuffled ids plus isolated nodes: the
        # components interleave in id order, and at alpha 0 with a large beta their long
        # paths survive, so each needs several rounds of label propagation
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(12, 90))
            ids = [f"n{i:02d}" for i in rng.permutation(n)]
            cuts = rng.choice(np.arange(1, n), size=int(rng.integers(2, 6)), replace=False)
            parts = np.split(np.array(ids), np.sort(cuts))
            edges = [(a, b) for part in parts[1:] for a, b in combinations(part, 2)
                     if rng.random() < 2.0 / len(part)]
            g = make_graph(edges, extra_nodes=ids)  # parts[0]: isolated nodes
            for config in (PropinquityConfig(alpha=0, beta=1000, min_community_size=2),
                           PropinquityConfig(alpha=0, beta=3, min_community_size=3),
                           PropinquityConfig(alpha=1, beta=2, min_community_size=2)):
                assert_matches_reference(g, config)

    def test_edgeless_and_single_node(self):
        for nodes in (["a"], ["a", "b", "c"]):
            g = make_graph([], extra_nodes=nodes)
            config = PropinquityConfig(min_community_size=1)
            assert [c.members for c in detect_communities(g, config)] == \
                [frozenset([u]) for u in nodes]
            assert_matches_reference(g, config)


class TestModularity:
    def test_whole_graph_single_community(self):
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        q = modularity(g, [make_community("abcdef")])
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_partition(self):
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        q = modularity(g, [make_community("abc", 0), make_community("def", 1)])
        assert q == pytest.approx(5 / 14, abs=1e-12)

    def test_edgeless_graph(self):
        g = make_graph([], extra_nodes=["a", "b"])
        assert modularity(g, [make_community("ab")]) == 0.0

    def test_uncovered_nodes_become_singletons(self):
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        partial = modularity(g, [make_community("abc", 0)])
        explicit = modularity(g, [make_community("abc", 0)] +
                              [make_community([u], i + 1) for i, u in enumerate("def")])
        assert partial == pytest.approx(explicit, abs=1e-12)

    def test_bounds_on_random_partitions(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            nodes = [f"n{i}" for i in range(n)]
            edges = [(a, b) for a, b in combinations(nodes, 2) if rng.random() < 0.4]
            g = make_graph(edges, extra_nodes=nodes)
            k = int(rng.integers(1, n + 1))
            assignment = rng.integers(0, k, size=n)
            comms = []
            for cid in range(k):
                members = [nodes[i] for i in range(n) if assignment[i] == cid]
                if members:
                    comms.append(make_community(members, cid))
            q = modularity(g, comms)
            assert -0.5 <= q <= 1.0

    def test_matches_edge_loop_reference_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            nodes = [f"n{i:02d}" for i in rng.permutation(n)]
            edges = [(a, b) for a, b in combinations(nodes, 2) if rng.random() < 0.15]
            for g in (make_graph(edges, extra_nodes=nodes), make_graph([], extra_nodes=nodes)):
                for comms in (random_partial_partition(rng, nodes), [],
                              [make_community(nodes)]):
                    assert modularity(g, comms) == modularity_reference(g, comms)


def test_communities_csv_sorted():
    comms = [make_community(["u2", "u1"], 1, snapshot_index=0),
             make_community(["u9"], 0, snapshot_index=1)]
    out = communities_csv(comms)
    assert out == ("snapshot_index,community_id,user_id\n"
                   "0,1,u1\n0,1,u2\n1,0,u9\n")
