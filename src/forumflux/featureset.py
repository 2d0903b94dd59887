"""The 18 features per labeled user, built as columns over (user, window) cells.

A cell is one user in one window where the user posted. Current-window fields
come from the feature cell itself; every "*_before" and "last_*" field looks
strictly before the feature window's start: history is the running total over
the user's earlier cells, and last_* is read from the user's previous cell and
its last post. A user with no earlier cell gets zeroed history fields, with
times_appeared_before = 0 as the disambiguator, and last_activity measured from
the corpus start.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from . import _kernels
from . import community as community_mod
from . import graph as graph_mod
from .errors import DegenerateDatasetError, ParseError
from .evolution import ROLES_BY_TASK, Task
from .lexifeat import text_measures

FEATURE_NAMES = [
    "sentiment", "cognition", "intent", "connectiveness", "betweenness",
    "times_appeared_before", "avg_sentiment_before", "avg_cognition_before",
    "avg_intent_before", "avg_connectiveness", "avg_betweenness", "last_sentiment",
    "last_cognition", "last_intent", "last_connectiveness", "last_betweenness",
    "last_activity", "modularity",
]
N_FEATURES = len(FEATURE_NAMES)
DATASET_COLUMNS = ["task", "snapshot_index", "user_id", "label"] + FEATURE_NAMES


class FeatureContext:
    """Everything feature assembly needs, precomputed per corpus.

    Holds the windows, graphs, detected communities and, per window, the
    modularity of its partition. Posts are bucketed by `graph.posts_by_window`;
    `users` numbers the posting users in ascending id order, and the cells are
    numbered in (user, window) order, `cells` holding user * n_windows + window.
    Per cell it keeps the post count, the (sentiment, cognition, intent) sums,
    the text measures and the seconds since the corpus start of the cell's
    last post, the user's (closeness, betweenness) in the window's graph, and
    `rank`, the cell's place among its user's cells.
    The users who post in each window must be exactly that window's graph nodes.
    """

    def __init__(self, posts, windows, graphs, communities_by_snapshot,
                 lexicon, patterns):
        self.windows = list(windows)
        self.graphs = {g.snapshot_index: g for g in graphs}
        self.communities = communities_by_snapshot
        n_windows, first = len(self.windows), self.windows[0].start
        buckets = graph_mod.posts_by_window(sorted(posts, key=lambda p: p.created_at),
                                            self.windows)
        posts = [p for bucket in buckets for p in bucket]  # still in time order
        self.users = {u: i for i, u in enumerate(sorted({p.user_id for p in posts}))}
        user = np.fromiter((self.users[p.user_id] for p in posts), np.int64, len(posts))
        window = np.repeat(np.arange(n_windows), [len(b) for b in buckets])
        self.cells, cell = np.unique(user * n_windows + window, return_inverse=True)
        text = np.array([(m.sentiment, m.cognition, m.intent) for m in
                         (text_measures(p.body, lexicon, patterns) for p in posts)])
        self.count = np.bincount(cell)
        self.text = np.column_stack([np.bincount(cell, weights=col) for col in text.T])
        last = np.zeros(self.cells.size, np.int64)
        np.maximum.at(last, cell, np.arange(len(posts)))  # fancy assignment has no order
        self.last_text = text[last]
        self.last_seconds = np.array([(posts[j].created_at - first).total_seconds()
                                      for j in last.tolist()])
        self.start_seconds = np.array([(w.start - first).total_seconds() for w in self.windows])

        cell_user, cell_window = np.divmod(self.cells, n_windows)
        self.centrality = np.zeros((self.cells.size, 2))  # closeness, betweenness
        for k in range(n_windows):
            g, in_k = self.graphs[k], cell_window == k
            if cell_user[in_k].tolist() != [self.users.get(u) for u in g.nodes]:
                raise ParseError("the graphs do not hold the users who post in each window: "
                                 "they were built on another window calendar; rerun "
                                 "'snapshots'")
            self.centrality[in_k] = np.column_stack(_kernels.centrality_csr(g.indptr,
                                                                            g.indices))
        self.modularity = np.array([
            community_mod.modularity(self.graphs[k], self.communities.get(k, []))
            for k in range(n_windows)])
        # each cell's place among its user's cells, 0 at the user's first window
        self.rank = np.arange(self.cells.size) - np.searchsorted(cell_user, cell_user)


def assemble_features(ctx, keys):
    """The (len(keys), 18) feature matrix, a row per (user_id, snapshot_index) key.

    History sums run over each user's cells left to right, as a Python sum
    would add them. A key whose user posted nowhere, or not in its window, is
    a ParseError naming the first such key.
    """
    n_windows = len(ctx.windows)
    code = np.array([ctx.users[user] * n_windows + snap
                     if user in ctx.users and 0 <= snap < n_windows else -1
                     for user, snap in keys], dtype=np.int64)
    c = np.searchsorted(ctx.cells, code).clip(max=ctx.cells.size - 1)
    missing = ctx.cells[c] != code  # -1: unknown user, or a snapshot whose key would alias
    if missing.any():
        user, snap = keys[int(np.argmax(missing))]
        if user not in ctx.users:
            raise ParseError(f"unknown user {user!r}")
        raise ParseError(f"user {user!r} has no activity at snapshot {snap}")

    own = np.column_stack([ctx.count, ctx.text, ctx.centrality])
    total = np.zeros_like(own)  # over the user's earlier cells
    for r in range(1, ctx.rank.max(initial=0) + 1):
        at = np.flatnonzero(ctx.rank == r)
        total[at] = total[at - 1] + own[at - 1]
    total, rank, window = total[c], ctx.rank[c], code % n_windows
    prev = c - 1  # the user's previous cell, where rank > 0
    since = np.where(rank > 0, ctx.last_seconds[prev], 0)
    return np.column_stack([
        ctx.text[c], ctx.centrality[c], total[:, 0],
        total[:, 1:4] / np.maximum(total[:, :1], 1),
        total[:, 4:] / np.maximum(rank[:, None], 1),
        np.where(rank[:, None] > 0, np.column_stack([ctx.last_text[prev],
                                                     ctx.centrality[prev]]), 0.0),
        (ctx.start_seconds[window] - since) / graph_mod.SECONDS_PER_DAY,
        ctx.modularity[window],
    ])


def build_dataset(labels, task, ctx):
    """(keys, y, X) for one task: the (user_id, snapshot_index) keys sorted by
    snapshot then user, their 0/1 labels (1 = Joining/Leaving) and the feature
    matrix.

    JoinVsPrevious rows are taken at the current snapshot t; LeaveVsStay rows
    at t-1, the last snapshot where leavers are still present, which keeps the
    prediction causal. Duplicate (user, snapshot) rows collapse with
    positive-label precedence.
    """
    positive_role, negative_role = ROLES_BY_TASK[task]
    rows = {}
    for label in labels:
        if label.role not in (positive_role, negative_role):
            continue
        snap = label.snapshot_index if task is Task.JOIN_VS_PREVIOUS else label.snapshot_index - 1
        y = 1 if label.role is positive_role else 0
        key = (label.user_id, snap)
        if key in rows and rows[key] >= y:
            continue
        rows[key] = y
    if not any(y == 1 for y in rows.values()) or not any(y == 0 for y in rows.values()):
        raise DegenerateDatasetError(
            f"task {task.value} needs at least one positive and one negative example")
    keys = sorted(rows, key=lambda k: (k[1], k[0]))
    return keys, np.array([rows[k] for k in keys]), assemble_features(ctx, keys)


def dataset_csv(task, keys, y, X):
    """CSV task,snapshot_index,user_id,label,<18 feature columns>, a row per key in
    order; each feature is written as the repr of a Python float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_COLUMNS)
    writer.writerows([task.value, snap, user, label] + [repr(v) for v in row]
                     for (user, snap), label, row in zip(keys, y.tolist(), X.tolist()))
    return buf.getvalue()


def dataset_from_csv(fh):
    """(X, y) float64 arrays from a dataset_csv text, in row order. A label other than
    0 or 1, or a feature that is NaN or beyond +-1e150, is a ParseError."""
    reader = csv.reader(fh)
    if next(reader, None) != DATASET_COLUMNS:
        raise ParseError("dataset header must be task,snapshot_index,user_id,label "
                         "and the feature names")
    X, y = [], []
    for row in reader:
        try:
            if len(row) != len(DATASET_COLUMNS):
                raise ValueError
            label = float(row[3])
            features = [float(v) for v in row[4:]]
        except ValueError:
            raise ParseError(f"malformed dataset row at line {reader.line_num}") from None
        if label not in (0.0, 1.0):
            raise ParseError(f"dataset label at line {reader.line_num} must be 0 or 1, "
                             f"got {row[3]!r}")
        if not all(-1e150 <= v <= 1e150 for v in features):  # standardization squares them
            raise ParseError(f"feature in dataset row at line {reader.line_num} is not finite "
                             "or exceeds 1e150 in magnitude")
        y.append(label)
        X.append(features)
    if not X:
        raise DegenerateDatasetError("the dataset holds no rows")
    return np.array(X), np.array(y)
