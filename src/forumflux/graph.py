"""Temporal windowing and per-window co-participation graphs.

Every post maps to exactly one fixed-width window counted from the corpus
first post; `posts_by_window` buckets posts, and a post outside the calendar
is an error. Within a window, two users are connected iff they posted in at
least one common thread; the edge weight is the number of distinct shared
threads. Each graph numbers its nodes in ascending order and holds the CSR
adjacency over those numbers, which the numpy kernels read directly: `featureset`
hands it to `_kernels.centrality_csr` (the unweighted graph), and `community` runs
propinquity dynamics on it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import combinations

import numpy as np

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
    """One window's graph. Built from any iterable of user ids, `nodes` becomes
    user_id -> index, numbered in ascending user id order. `edges` maps
    (user_a, user_b), user_a < user_b, to the number of shared threads: that
    weight is written by `edges_csv` but read by no computation. `indptr` and
    `indices` are the CSR adjacency over the node indices, each edge listed both
    ways and each node's neighbours in ascending order."""

    snapshot_index: int
    nodes: dict
    edges: dict
    indptr: np.ndarray = field(init=False, compare=False, repr=False)
    indices: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {u: i for i, u in enumerate(sorted(self.nodes))}
        ends = np.fromiter((index[u] for pair in self.edges for u in pair), dtype=np.int64,
                           count=2 * len(self.edges)).reshape(-1, 2)
        rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
        object.__setattr__(self, "nodes", index)
        object.__setattr__(self, "indptr", np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=len(index)))]))
        object.__setattr__(self, "indices", cols[np.lexsort((cols, rows))])


def build_windows(first_post, last_post, window_days):
    """Contiguous window_days-wide windows (window_days >= 1) covering
    [first_post, last_post]; none when first_post is after last_post."""
    try:
        width = timedelta(days=window_days)
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
    return InteractionGraph(snapshot_index=window.index, nodes=nodes, edges=edges)


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


def edges_csv(graphs):
    """CSV edge list snapshot_index,user_a,user_b,weight across snapshots.

    A node without edges gets the row k,user,,0 (ingest rejects empty user ids).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EDGE_COLUMNS)
    for graph in sorted(graphs, key=lambda g: g.snapshot_index):
        rows = [(a, b, w) for (a, b), w in graph.edges.items()]
        rows += [(u, "", 0) for u, d in zip(graph.nodes, np.diff(graph.indptr)) if d == 0]
        writer.writerows((graph.snapshot_index, *row) for row in sorted(rows))
    return buf.getvalue()


def graphs_from_csv(fh, windows):
    """Inverse of edges_csv: one graph per window, empty where no row names it. A row
    edges_csv never writes is a ParseError naming its line: a row with an empty user_a,
    an edge row with a self-loop, a pair out of order or repeated in its snapshot, a
    weight below 1 or a user of an isolated-node row, and an isolated-node row of weight
    other than 0 or for a user named before."""
    linked = [set() for _ in windows]
    loners = [set() for _ in windows]
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
        if not b:
            if weight != 0 or not a or a in linked[k] or a in loners[k]:
                raise ParseError(f"isolated-node row at line {reader.line_num} must have "
                                 "weight 0 and name a user with no other row in its snapshot")
            loners[k].add(a)
        elif (not "" < a < b or (a, b) in edges[k] or weight < 1
              or a in loners[k] or b in loners[k]):
            raise ParseError(f"edge row at line {reader.line_num} must name two users in "
                             "order, user_a < user_b, a pair not listed before in its "
                             "snapshot, no user of an isolated-node row, and a weight of 1 "
                             "or more")
        else:
            linked[k].add(a)
            linked[k].add(b)
            edges[k][(a, b)] = weight
    return [InteractionGraph(snapshot_index=w.index, nodes=users | lone, edges=e)
            for w, users, lone, e in zip(windows, linked, loners, edges)]
