import csv
import io
from datetime import datetime, timedelta, timezone

import pytest

from forumflux import _kernels
from forumflux.community import Community, detect_communities
from forumflux.featureset import FeatureContext
from forumflux.graph import InteractionGraph, SnapshotWindow, build_windows, window_graphs
from forumflux.ingest import CSV_COLUMNS, PostRecord, format_timestamp, serialize_posts

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def make_post(post_id, thread_id, user_id, minutes=0, body="hello"):
    return PostRecord(post_id=post_id, thread_id=thread_id, user_id=user_id,
                      created_at=T0 + timedelta(minutes=minutes), body=body)


def serialize(records, fmt):
    """records as input bytes of fmt: 'jsonl' as the pipeline writes it, or
    RFC-4180 CSV with a header row."""
    if fmt == "jsonl":
        return serialize_posts(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # also quotes bodies that hold \r
    writer.writerow(CSV_COLUMNS)
    writer.writerows([r.post_id, r.thread_id, r.user_id, format_timestamp(r.created_at), r.body]
                     for r in records)
    return buf.getvalue().encode("utf-8")


def make_graph(edges, snapshot_index=0, extra_nodes=()):
    """Graph from (u, v) or (u, v, weight) tuples."""
    nodes = set(extra_nodes)
    edge_map = {}
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1
        a, b = (u, v) if u < v else (v, u)
        nodes.update((a, b))
        edge_map[(a, b)] = w
    return InteractionGraph(snapshot_index=snapshot_index, nodes=frozenset(nodes),
                            edges=edge_map)


def neighbors(graph):
    """Adjacency map user_id -> set of user_id."""
    adj = {u: set() for u in graph.nodes}
    for (a, b) in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def feature_context(posts, window_days, lexicon, patterns, prop_config):
    """Windows, graphs and communities of a corpus, as the pipeline stages build them."""
    times = [p.created_at for p in posts]
    windows = build_windows(min(times), max(times), window_days)
    graphs = window_graphs(posts, windows)
    communities = {g.snapshot_index: detect_communities(g, prop_config) for g in graphs}
    return FeatureContext(posts, windows, graphs, communities, lexicon, patterns)


def centrality_all(graph):
    """(closeness map, betweenness map) over every node of the graph, from the kernel."""
    closeness, betweenness = _kernels.centrality_csr(graph.indptr, graph.indices)
    return dict(zip(graph.nodes, closeness.tolist())), dict(zip(graph.nodes, betweenness.tolist()))


def make_community(members, community_id=0, snapshot_index=0):
    return Community(snapshot_index=snapshot_index, community_id=community_id,
                     members=frozenset(members))


@pytest.fixture
def day_window():
    return SnapshotWindow(index=0, start=T0, end=T0 + timedelta(days=1))


TWO_TRIANGLES_BRIDGE = [("a", "b"), ("a", "c"), ("b", "c"),
                        ("d", "e"), ("d", "f"), ("e", "f"),
                        ("c", "d")]
