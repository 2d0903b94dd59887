"""Temporal windowing and per-window co-participation graphs.

Every post maps to exactly one fixed-width window counted from the corpus
first post; `posts_by_window` buckets posts, and a post outside the calendar
is an error. Within a window, two users are connected iff they posted in at
least one common thread; the edge weight is the number of distinct shared
threads. `node_index` numbers the sorted nodes for both numpy kernels:
centrality (on the unweighted graph) and propinquity dynamics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import combinations

import numpy as np

from . import _kernels
from .errors import ParseError

SECONDS_PER_DAY = 86400.0
EDGE_COLUMNS = ["snapshot_index", "user_a", "user_b", "weight"]


@dataclass(frozen=True)
class SnapshotWindow:
    index: int
    start: datetime  # inclusive
    end: datetime    # exclusive


@dataclass(frozen=True)
class InteractionGraph:
    snapshot_index: int
    nodes: frozenset        # of user_id
    edges: dict             # (user_a, user_b) with user_a < user_b -> weight


def build_windows(first_post, last_post, window_days):
    """Contiguous window_days-wide windows (window_days >= 1) covering
    [first_post, last_post]; none when first_post is after last_post."""
    width = timedelta(days=window_days)
    try:
        return [SnapshotWindow(i, first_post + i * width, first_post + (i + 1) * width)
                for i in range(window_index(first_post, last_post, width) + 1)]
    except OverflowError:
        raise ParseError(f"the {window_days}-day window calendar ends after year 9999") from None


def window_index(first_post, ts, width):
    """Index of ts's window of width (a timedelta) from first_post; exact: start <= ts < end."""
    return (ts - first_post) // width


def build_graph(posts, window):
    """Co-participation graph over the posts whose timestamps fall in window."""
    thread_users = {}
    nodes = set()
    for post in posts:
        if window.start <= post.created_at < window.end:
            nodes.add(post.user_id)
            thread_users.setdefault(post.thread_id, set()).add(post.user_id)
    edges = {}
    for users in thread_users.values():
        for a, b in combinations(sorted(users), 2):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    return InteractionGraph(snapshot_index=window.index, nodes=frozenset(nodes), edges=edges)


def posts_by_window(posts, windows):
    """Each window's posts, in input order. No posts, or a post outside the
    contiguous calendar, is a ParseError: the calendar comes from
    corpus_stats.json, so either means posts.jsonl changed after 'ingest'."""
    if not posts:
        raise ParseError("posts.jsonl holds no posts; rerun 'ingest'")
    first, width = windows[0].start, windows[0].end - windows[0].start
    buckets = [[] for _ in windows]
    for post in posts:
        k = window_index(first, post.created_at, width)
        if not 0 <= k < len(buckets):
            raise ParseError(f"post {post.post_id!r} at {post.created_at.isoformat()} lies "
                             f"outside the {len(windows)} windows from {first.isoformat()}; "
                             "rerun 'ingest'")
        buckets[k].append(post)
    return buckets


def window_graphs(posts, windows):
    """One graph per window of a contiguous calendar; each post is bucketed once."""
    return [build_graph(bucket, w) for bucket, w in zip(posts_by_window(posts, windows), windows)]


def node_index(graph):
    """(sorted nodes, rows, cols): every edge in both directions as a pair of
    indices into the sorted nodes, ordered by row and then column."""
    order = sorted(graph.nodes)
    index = {u: i for i, u in enumerate(order)}
    ends = np.array([(index[a], index[b]) for a, b in graph.edges], dtype=np.int64).reshape(-1, 2)
    rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
    key = np.lexsort((cols, rows))
    return order, rows[key], cols[key]


def centrality_all(graph):
    """(closeness map, betweenness map) over every node of the graph."""
    order, rows, cols = node_index(graph)
    if not order:
        return {}, {}
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(order)))])
    closeness, betweenness = _kernels.centrality_csr(indptr, cols)
    return (
        {u: float(closeness[i]) for i, u in enumerate(order)},
        {u: float(betweenness[i]) for i, u in enumerate(order)},
    )


def edges_csv(graphs):
    """CSV edge list snapshot_index,user_a,user_b,weight across snapshots.

    A node without edges gets the row k,user,,0 (ingest rejects empty user ids).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EDGE_COLUMNS)
    for graph in sorted(graphs, key=lambda g: g.snapshot_index):
        rows = [(a, b, w) for (a, b), w in graph.edges.items()]
        rows += [(u, "", 0) for u in graph.nodes.difference(*graph.edges)]
        writer.writerows((graph.snapshot_index, *row) for row in sorted(rows))
    return buf.getvalue()


def graphs_from_csv(fh, windows):
    """Inverse of edges_csv: one graph per window, empty where no row names it. An
    edge row that edges_csv never writes, a self-loop, a pair out of order or a pair
    repeated in its snapshot, is a ParseError."""
    nodes = [set() for _ in windows]
    edges = [{} for _ in windows]
    reader = csv.reader(fh)
    if next(reader, None) != EDGE_COLUMNS:
        raise ParseError(f"edge list header must be {','.join(EDGE_COLUMNS)}")
    for row in reader:
        try:
            k, a, b, weight = row
            k, weight = int(k), int(weight)
        except ValueError:
            raise ParseError(f"malformed edge row at line {reader.line_num}") from None
        if not 0 <= k < len(windows):
            raise ParseError(f"edge row at line {reader.line_num} names snapshot {k}, "
                             f"outside the {len(windows)} configured windows")
        nodes[k].add(a)
        if b:
            if not a < b or (a, b) in edges[k]:
                raise ParseError(f"edge row at line {reader.line_num} must name two users "
                                 "in order, user_a < user_b, and a pair not listed before "
                                 "in its snapshot")
            nodes[k].add(b)
            edges[k][(a, b)] = weight
    return [InteractionGraph(snapshot_index=w.index, nodes=frozenset(n), edges=e)
            for w, n, e in zip(windows, nodes, edges)]
