import io
from datetime import datetime, timedelta, timezone
from itertools import combinations, permutations

import numpy as np
import pytest

from forumflux import _kernels, graph as graph_mod
from forumflux.errors import ParseError
from forumflux.graph import (SnapshotWindow, build_graph, build_windows, centrality_all,
                             edges_csv, graphs_from_csv, window_graphs, window_index)

from conftest import T0, make_graph, make_post, neighbors

UTC = timezone.utc


class TestBuildWindows:
    def test_degenerate_span(self):
        ws = build_windows(T0, T0, 24)
        assert len(ws) == 1
        assert ws[0].start == T0
        assert ws[0].end == T0 + timedelta(days=24)

    def test_paper_snapshot_count(self):
        first = datetime(2000, 4, 21, tzinfo=UTC)
        last = datetime(2013, 4, 25, tzinfo=UTC)
        assert len(build_windows(first, last, 24)) == 199

    def test_boundary_falls_in_next_window(self):
        first = datetime(2020, 1, 1, tzinfo=UTC)
        last = datetime(2020, 1, 25, tzinfo=UTC)
        ws = build_windows(first, last, 24)
        assert len(ws) == 2
        assert window_index(first, first + timedelta(days=24), timedelta(days=24)) == 1

    def test_contiguous_and_exact_width(self):
        ws = build_windows(T0, T0 + timedelta(days=100), 24)
        for w in ws:
            assert w.end - w.start == timedelta(days=24)
        for a, b in zip(ws, ws[1:]):
            assert b.start == a.end
            assert b.index == a.index + 1

    def test_every_timestamp_maps_to_exactly_one_window(self):
        ws = build_windows(T0, T0 + timedelta(days=70), 7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            ts = T0 + timedelta(seconds=float(rng.uniform(0, 70 * 86400)))
            idx = window_index(T0, ts, timedelta(days=7))
            hits = [w for w in ws if w.start <= ts < w.end]
            assert len(hits) == 1
            assert hits[0].index == idx

    def test_calendar_past_year_9999_rejected(self):
        last_day = datetime(9999, 12, 31, tzinfo=UTC)
        with pytest.raises(ParseError, match="^the 24-day window calendar ends after year 9999$"):
            build_windows(last_day, last_day + timedelta(hours=1), 24)
        assert build_windows(last_day - timedelta(days=2), last_day - timedelta(hours=1),
                             1)[-1].end == last_day


class TestBuildGraph:
    def test_empty_window(self, day_window):
        g = build_graph([], day_window)
        assert g.nodes.keys() == frozenset()
        assert g.edges == {}

    def test_minimal_edge(self, day_window):
        posts = [make_post("p1", "t1", "u1"), make_post("p2", "t1", "u2", minutes=1)]
        g = build_graph(posts, day_window)
        assert g.nodes.keys() == frozenset({"u1", "u2"})
        assert g.edges == {("u1", "u2"): 1}

    def test_shared_thread_weights(self, day_window):
        posts = [
            make_post("p1", "t1", "u1"), make_post("p2", "t1", "u2"),
            make_post("p3", "t2", "u1", minutes=1), make_post("p4", "t2", "u2", minutes=1),
            make_post("p5", "t2", "u3", minutes=2),
        ]
        g = build_graph(posts, day_window)
        assert g.edges == {("u1", "u2"): 2, ("u1", "u3"): 1, ("u2", "u3"): 1}

    def test_posts_outside_window_ignored(self, day_window):
        posts = [make_post("p1", "t1", "u1"),
                 make_post("p2", "t1", "u2", minutes=60 * 24 + 1)]
        g = build_graph(posts, day_window)
        assert g.nodes.keys() == frozenset({"u1"})
        assert g.edges == {}

    def test_no_self_loops(self, day_window):
        posts = [make_post("p1", "t1", "u1"), make_post("p2", "t1", "u1", minutes=1)]
        g = build_graph(posts, day_window)
        assert g.edges == {}

    def test_order_invariant(self, day_window):
        posts = [make_post(f"p{i}", f"t{i % 3}", f"u{i % 4}", minutes=i) for i in range(10)]
        base = build_graph(posts, day_window)
        for perm in permutations(range(4)):
            shuffled = [posts[i] for i in np.random.default_rng(perm).permutation(10)]
            assert build_graph(shuffled, day_window) == base


# --- independent oracles ----------------------------------------------------

def bfs_distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def oracle_closeness(graph):
    adj = neighbors(graph)
    n = len(adj)
    scores = {}
    for u in adj:
        dist = bfs_distances(adj, u)
        r = len(dist) - 1
        total = sum(dist.values())
        scores[u] = 0.0 if r == 0 or n == 1 else (r / (n - 1)) * (r / total)
    return scores


def all_shortest_paths(adj, s, t):
    """Every shortest s-t path, by exhaustive path enumeration."""
    dist = bfs_distances(adj, s)
    if t not in dist:
        return []
    target_len = dist[t]
    paths = []

    def extend(path):
        v = path[-1]
        if v == t:
            paths.append(list(path))
            return
        if len(path) - 1 == target_len:
            return
        for w in adj[v]:
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()
    extend([s])
    return [p for p in paths if len(p) - 1 == target_len]


def oracle_betweenness(graph):
    adj = neighbors(graph)
    scores = {u: 0.0 for u in adj}
    for s, t in permutations(adj, 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                scores[v] += 1.0 / len(paths)
    return {u: v / 2.0 for u, v in scores.items()}


def brandes_reference(graph):
    """Closeness and betweenness by Brandes' algorithm, one BFS source at a time."""
    adj = {u: sorted(vs) for u, vs in neighbors(graph).items()}
    n = len(adj)
    closeness = {}
    betweenness = dict.fromkeys(adj, 0.0)
    for s in adj:
        dist, sigma, order = {s: 0}, {s: 1}, [s]
        for v in order:  # order grows while it is read: the BFS queue
            for w in adj[v]:
                if w not in dist:
                    dist[w], sigma[w] = dist[v] + 1, 0
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        r = len(order) - 1
        closeness[s] = (r / (n - 1)) * (r / sum(dist.values())) if r else 0.0
        delta = dict.fromkeys(order, 0.0)
        for w in reversed(order):
            for v in adj[w]:
                if dist.get(v) == dist[w] - 1:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                betweenness[w] += delta[w]
    return closeness, {u: b / 2 for u, b in betweenness.items()}


def random_graph(rng, n, p=0.4):
    edges = [(f"n{a}", f"n{b}") for a, b in combinations(range(n), 2) if rng.random() < p]
    return make_graph(edges, extra_nodes=[f"n{i}" for i in range(n)])


def random_tree(rng, n):
    edges = [(f"n{i}", f"n{int(rng.integers(0, i))}") for i in range(1, n)]
    return make_graph(edges, extra_nodes=["n0"])


class TestCentralityFixtures:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_edgeless_graph(self, n):
        g = make_graph([], extra_nodes="abc"[:n])
        zeros = {u: 0.0 for u in "abc"[:n]}
        assert centrality_all(g) == (zeros, zeros)

    def test_star_closeness(self):
        g = make_graph([("c", "x"), ("c", "y"), ("c", "z")])
        clo = centrality_all(g)[0]
        assert clo["c"] == pytest.approx(1.0)
        for leaf in "xyz":
            assert clo[leaf] == pytest.approx(0.6)

    def test_two_disjoint_edges_closeness(self):
        g = make_graph([("a", "b"), ("c", "d")])
        clo = centrality_all(g)[0]
        for u in "abcd":
            assert clo[u] == pytest.approx(1 / 3)

    def test_path_betweenness(self):
        g = make_graph([("a", "b"), ("b", "c")])
        bet = centrality_all(g)[1]
        assert bet == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_k4_betweenness(self):
        g = make_graph([(a, b) for a, b in combinations("abcd", 2)])
        assert all(v == 0.0 for v in centrality_all(g)[1].values())

    def test_four_cycle_betweenness(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        bet = centrality_all(g)[1]
        assert all(v == pytest.approx(0.5) for v in bet.values())


class TestCentralityOracles:
    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(1, 8)))
            clo, bet = centrality_all(g)
            exp_clo = oracle_closeness(g)
            exp_bet = oracle_betweenness(g)
            for u in g.nodes:
                assert clo[u] == pytest.approx(exp_clo[u], abs=1e-9)
                assert bet[u] == pytest.approx(exp_bet[u], abs=1e-9)

    def test_tree_betweenness_counts_routed_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_tree(rng, int(rng.integers(2, 13)))
            adj = neighbors(g)
            bet = centrality_all(g)[1]
            for v in g.nodes:
                routed = 0
                for s, t in permutations(g.nodes, 2):
                    if v in (s, t):
                        continue
                    paths = all_shortest_paths(adj, s, t)
                    assert len(paths) == 1  # unique paths in a tree
                    if v in paths[0][1:-1]:
                        routed += 1
                assert bet[v] == pytest.approx(routed / 2, abs=1e-9)

    def test_large_graphs_match_brandes_reference(self):
        # too large for path enumeration: long paths, many components, many levels
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, int(rng.integers(20, 90)), p=float(rng.uniform(0.01, 0.2)))
                  for _ in range(12)]
        graphs.append(make_graph([(f"n{i:02d}", f"n{i + 1:02d}") for i in range(60)]))
        for g in graphs:
            clo, bet = centrality_all(g)
            exp_clo, exp_bet = brandes_reference(g)
            assert clo == exp_clo  # integer path counts and distances: exact
            for u in g.nodes:
                assert bet[u] == pytest.approx(exp_bet[u], rel=1e-12, abs=1e-12)

    def test_each_component_scores_as_it_does_alone(self):
        # the parts' nodes interleave in sorted order, and isolated nodes sit between them
        rng = np.random.default_rng(3)
        for _ in range(8):
            parts = [make_graph([(rename(a, k), rename(b, k)) for a, b in g.edges],
                                extra_nodes=[rename(u, k) for u in g.nodes])
                     for k, g in enumerate(random_graph(rng, int(rng.integers(2, 25)), p=0.3)
                                           for _ in range(4))]
            loners = [f"n{i:03d}_x" for i in rng.choice(30, size=5, replace=False)]
            union = make_graph([e for g in parts for e in g.edges],
                               extra_nodes=[u for g in parts for u in g.nodes] + loners)
            clo, bet = centrality_all(union)
            assert clo == brandes_reference(union)[0]
            for u in loners:
                assert (clo[u], bet[u]) == (0.0, 0.0)
            for g in parts:
                part_clo, part_bet = centrality_all(g)
                scale = (len(g.nodes) - 1) / (len(union.nodes) - 1)
                for u in g.nodes:
                    assert bet[u] == part_bet[u]  # the same component, the same sums
                    assert clo[u] == pytest.approx(part_clo[u] * scale, rel=1e-12)


def rename(node, k):
    """random_graph's node n<i> as part k of a union; zero padding keeps the order."""
    return f"n{int(node[1:]):03d}_{k}"


def test_component_labels_match_scipy():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, int(rng.integers(1, 60)), p=float(rng.uniform(0, 0.1)))
              for _ in range(200)]
    # a long path numbered out of order: many propagation rounds
    path = [f"n{i:03d}" for i in rng.permutation(200)]
    graphs.append(make_graph(list(zip(path, path[1:]))))
    for g in graphs:
        n = len(g.nodes)
        labels = _kernels.component_labels(g.indptr, g.indices)
        adjacency = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
        count, expected = connected_components(adjacency, directed=False)
        smallest = np.full(count, n)
        np.minimum.at(smallest, expected, np.arange(n))
        assert labels.tolist() == smallest[expected].tolist()


class SmallSourceBlocks:
    """Rerun a centrality suite with the kernel's source blocks shrunk, so each graph
    is swept in several blocks: one source each, or a few sources each."""

    @pytest.fixture(autouse=True, params=[1, 20])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", request.param)


class TestCentralityFixturesSmallBlocks(SmallSourceBlocks, TestCentralityFixtures):
    pass


class TestCentralityOraclesSmallBlocks(SmallSourceBlocks, TestCentralityOracles):
    pass


def test_edges_csv_format(day_window):
    g1 = make_graph([("b", "a", 2), ("c", "a", 1)], snapshot_index=0)
    g2 = make_graph([("z", "y", 3)], snapshot_index=1)
    out = edges_csv([g2, g1])
    assert out == ("snapshot_index,user_a,user_b,weight\n"
                   "0,a,b,2\n0,a,c,1\n1,y,z,3\n")


def test_window_index_is_exact_at_boundaries():
    width = timedelta(days=24)
    assert window_index(T0, T0 + width - timedelta(microseconds=1), width) == 0
    assert window_index(T0, T0 + width, width) == 1
    assert window_index(T0, T0 - timedelta(seconds=1), width) == -1


def test_window_graphs_matches_per_window_build():
    # posts every 5 hours from T0 to T0 + 195 h; the windows cover [2 h, 194 h)
    posts = [make_post(f"p{i}", f"t{i % 4}", f"u{i % 5}", minutes=i * 300) for i in range(40)]
    windows = build_windows(T0 + timedelta(hours=2), T0 + timedelta(days=7), 2)
    inside = [p for p in posts if windows[0].start <= p.created_at < windows[-1].end]
    assert len(inside) == 38
    assert window_graphs(inside, windows) == [build_graph(posts, w) for w in windows]
    # the calendar comes from corpus_stats.json, so a post outside it is an error
    for outside in (posts[0], posts[-1]):
        with pytest.raises(ParseError, match=rf"post '{outside.post_id}' .*rerun 'ingest'"):
            window_graphs(inside + [outside], windows)
    with pytest.raises(ParseError, match="^posts.jsonl holds no posts; rerun 'ingest'$"):
        window_graphs([], windows)


def csr_pairs(graph):
    """Every (row, column) pair of a graph's CSR adjacency, in storage order."""
    rows = np.repeat(np.arange(len(graph.nodes)), np.diff(graph.indptr))
    return list(zip(rows.tolist(), graph.indices.tolist()))


class TestGraphArrays:
    def test_edges_both_ways_by_row_then_column(self):
        g = make_graph([("c", "a"), ("d", "b"), ("a", "b"), ("a", "d")],
                       extra_nodes=["0solo", "e"])
        assert list(g.nodes.items()) == [("0solo", 0), ("a", 1), ("b", 2), ("c", 3), ("d", 4),
                                         ("e", 5)]
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert csr_pairs(g) == [(1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (4, 1), (4, 2)]
        assert np.diff(g.indptr).tolist() == [0, 3, 2, 1, 2, 0]

    def test_random_graphs_list_each_edge_twice_in_sorted_order(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            nodes = [f"n{i:02d}" for i in rng.permutation(int(rng.integers(1, 25)))]
            edges = [(a, b) for a, b in combinations(nodes, 2) if rng.random() < 0.2]
            g = make_graph(edges, extra_nodes=nodes)
            order = list(g.nodes)
            assert order == sorted(nodes)
            assert list(g.nodes.values()) == list(range(len(nodes)))
            pairs = csr_pairs(g)
            assert pairs == sorted({(order.index(a), order.index(b))
                                    for u, v in edges for a, b in ((u, v), (v, u))})
            assert len(pairs) == 2 * len(edges)

    @pytest.mark.parametrize("extra_nodes", [[], ["b", "a"]])
    def test_edgeless_graph(self, extra_nodes):
        g = make_graph([], extra_nodes=extra_nodes)
        assert list(g.nodes) == sorted(extra_nodes)
        assert g.indptr.tolist() == [0] * (len(extra_nodes) + 1)
        assert g.indices.shape == (0,)
        assert g.indptr.dtype == g.indices.dtype == np.int64

    def test_read_back_graphs_hold_the_built_arrays(self):
        rng = np.random.default_rng(23)
        posts = [make_post(f"p{i}", f"t{int(rng.integers(0, 6))}", f"u{int(rng.integers(0, 15))}",
                           minutes=int(rng.integers(0, 4 * 24 * 60))) for i in range(120)]
        windows = build_windows(T0, T0 + timedelta(days=4), 1)
        built = window_graphs(posts, windows)
        read = graphs_from_csv(io.StringIO(edges_csv(built), newline=""), windows)
        assert read == built
        for b, r in zip(built, read):
            assert b.indptr.dtype == r.indptr.dtype and b.indices.dtype == r.indices.dtype
            assert np.array_equal(b.indptr, r.indptr) and np.array_equal(b.indices, r.indices)
        assert any(b.indices.size for b in built)


def test_edges_csv_round_trip_keeps_isolated_nodes_and_empty_windows():
    windows = build_windows(T0, T0 + timedelta(days=2), 1)
    graphs = [
        make_graph([("a", "b", 2)], snapshot_index=0, extra_nodes=["loner"]),
        make_graph([], snapshot_index=1),
        make_graph([], snapshot_index=2, extra_nodes=["solo"]),
    ]
    text = edges_csv(graphs)
    assert text == ("snapshot_index,user_a,user_b,weight\n"
                    "0,a,b,2\n0,loner,,0\n2,solo,,0\n")
    assert graphs_from_csv(io.StringIO(text, newline=""), windows) == graphs


def test_edges_csv_row_outside_windows_rejected():
    windows = build_windows(T0, T0, 1)
    text = "snapshot_index,user_a,user_b,weight\n1,a,b,1\n"
    with pytest.raises(ParseError, match="outside the 1 configured windows"):
        graphs_from_csv(io.StringIO(text, newline=""), windows)


EDGE_ROW = "edge row at line {} must name two users in order"
LONER_ROW = "isolated-node row at line {} must have weight 0 and name a user with no other row"


@pytest.mark.parametrize("rows, message", [
    ("0,a,a,1", EDGE_ROW.format(2)),
    ("0,b,a,1", EDGE_ROW.format(2)),
    ("0,a,b,1\n0,a,b,2", EDGE_ROW.format(3)),
    ("0,a,b,-7", EDGE_ROW.format(2)),
    ("0,a,b,0", EDGE_ROW.format(2)),
    ("0,a,,3", LONER_ROW.format(2)),
    ("0,a,,-1", LONER_ROW.format(2)),
    ("0,a,b,1\n0,b,,0", LONER_ROW.format(3)),
    ("0,a,,0\n0,a,c,1", EDGE_ROW.format(3)),
    ("0,c,,0\n0,a,c,1", EDGE_ROW.format(3)),
    ("0,a,,0\n0,a,,0", LONER_ROW.format(3)),
    ("0,,b,1", EDGE_ROW.format(2)),
    ("0,,,0", LONER_ROW.format(2)),
], ids=["self-loop", "reversed pair", "repeated pair", "negative weight", "zero weight",
        "isolated node with weight", "isolated node with negative weight",
        "isolated node after its edge", "edge after its user's isolated node",
        "edge after its second user's isolated node", "repeated isolated node",
        "edge from an empty user id", "isolated node with an empty user id"])
def test_edges_csv_row_that_edges_csv_never_writes_rejected(rows, message):
    windows = build_windows(T0, T0 + timedelta(days=1), 1)
    header = "snapshot_index,user_a,user_b,weight\n"
    # the same pair, or an isolated node with an edge elsewhere, in another snapshot
    # is a row edges_csv writes
    graphs = graphs_from_csv(io.StringIO(header + "0,a,b,1\n0,b,c,2\n1,a,b,1\n1,c,,0\n",
                                         newline=""), windows)
    assert [g.edges for g in graphs] == [{("a", "b"): 1, ("b", "c"): 2}, {("a", "b"): 1}]
    assert [list(g.nodes) for g in graphs] == [["a", "b", "c"]] * 2
    with pytest.raises(ParseError, match=f"^{message}"):
        graphs_from_csv(io.StringIO(header + rows + "\n", newline=""), windows)
