"""Assembly of the 18-feature vector per labeled user.

Current-window fields come from the feature snapshot itself; every "*_before"
and "last_*" field looks strictly before the feature window's start, so the
vector never peeks at the window it describes. A user with no prior posts
gets zeroed history fields, with times_appeared_before = 0 as the
disambiguator, and last_activity measured from the corpus start.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import astuple, dataclass

import numpy as np

from . import community as community_mod
from . import graph as graph_mod
from .errors import DegenerateDatasetError, ForumFluxError, ParseError
from .evolution import ROLES_BY_TASK, Task
from .lexifeat import text_measures

FEATURE_NAMES = [
    "sentiment", "cognition", "intent",
    "connectiveness", "betweenness",
    "times_appeared_before",
    "avg_sentiment_before", "avg_cognition_before", "avg_intent_before",
    "avg_connectiveness", "avg_betweenness",
    "last_sentiment", "last_cognition", "last_intent",
    "last_connectiveness", "last_betweenness",
    "last_activity",
    "modularity",
]

N_FEATURES = len(FEATURE_NAMES)
DATASET_COLUMNS = ["task", "snapshot_index", "user_id", "label"] + FEATURE_NAMES


@dataclass(frozen=True)
class FeatureVector:
    sentiment: float
    cognition: float
    intent: float
    connectiveness: float
    betweenness: float
    times_appeared_before: float
    avg_sentiment_before: float
    avg_cognition_before: float
    avg_intent_before: float
    avg_connectiveness: float
    avg_betweenness: float
    last_sentiment: float
    last_cognition: float
    last_intent: float
    last_connectiveness: float
    last_betweenness: float
    last_activity: float
    modularity: float


@dataclass(frozen=True)
class LabeledExample:
    user_id: str
    snapshot_index: int
    task: Task
    label: int               # 1 = Joining/Leaving, 0 = Previous/Staying
    features: FeatureVector


class FeatureContext:
    """Everything feature assembly needs, precomputed per corpus.

    Holds the windows, per-snapshot graphs/centralities, detected communities
    with their modularity, per-post text measures, and per-user post indexes
    sorted by time.
    """

    def __init__(self, posts, windows, graphs, communities_by_snapshot,
                 lexicon, patterns):
        self.posts = list(posts)
        self.windows = list(windows)
        self.graphs = {g.snapshot_index: g for g in graphs}
        self.communities = communities_by_snapshot
        self.corpus_start = min(p.created_at for p in self.posts)
        first, width = self.windows[0].start, self.windows[0].end - self.windows[0].start
        posted = {((p.created_at - first) // width, p.user_id) for p in self.posts}
        if posted != {(k, u) for k, g in self.graphs.items() for u in g.nodes}:
            raise ParseError("the graphs do not hold the users who post in each window: they "
                             "were built on another window calendar; rerun 'snapshots'")

        self.closeness = {}
        self.betweenness = {}
        for idx, g in self.graphs.items():
            clo, bet = graph_mod.centrality_all(g)
            self.closeness[idx] = clo
            self.betweenness[idx] = bet
        self.snapshot_modularity = {
            idx: community_mod.modularity(self.graphs[idx], self.communities.get(idx, []))
            for idx in self.graphs
        }

        self.post_measures = {
            p.post_id: text_measures(p.body, lexicon, patterns) for p in self.posts
        }
        self.user_posts = {}
        for pos, p in enumerate(self.posts):
            self.user_posts.setdefault(p.user_id, []).append((p.created_at, pos, p))
        for entry in self.user_posts.values():
            entry.sort(key=lambda t: (t[0], t[1]))
        self.user_snapshots = {}
        for idx in sorted(self.graphs):
            for user in self.graphs[idx].nodes:
                self.user_snapshots.setdefault(user, []).append(idx)


def assemble_features(ctx, user, snapshot_index):
    """The 18-feature vector for a user at a feature snapshot."""
    window = ctx.windows[snapshot_index]
    graph = ctx.graphs[snapshot_index]
    entry = ctx.user_posts.get(user)
    if entry is None:
        raise ForumFluxError(f"unknown user {user!r}")
    in_window = [p for ts, _, p in entry if window.start <= ts < window.end]
    if not in_window and user not in graph.nodes:
        raise ForumFluxError(
            f"user {user!r} has no activity at snapshot {snapshot_index}")

    sentiment = cognition = intent = 0
    for p in in_window:
        m = ctx.post_measures[p.post_id]
        sentiment += m.sentiment
        cognition += m.cognition
        intent += m.intent

    times = [ts for ts, _, _ in entry]
    n_before = bisect_left(times, window.start)
    if n_before > 0:
        prior = [ctx.post_measures[entry[k][2].post_id] for k in range(n_before)]
        avg_sent = sum(m.sentiment for m in prior) / n_before
        avg_cog = sum(m.cognition for m in prior) / n_before
        avg_int = sum(m.intent for m in prior) / n_before
        last = prior[-1]
        last_sent, last_cog, last_int = last.sentiment, last.cognition, last.intent
        last_post_ts = entry[n_before - 1][0]
        last_activity = (window.start - last_post_ts).total_seconds() / graph_mod.SECONDS_PER_DAY
    else:
        avg_sent = avg_cog = avg_int = 0.0
        last_sent = last_cog = last_int = 0.0
        last_activity = (window.start - ctx.corpus_start).total_seconds() / graph_mod.SECONDS_PER_DAY

    prior_snaps = [j for j in ctx.user_snapshots.get(user, []) if j < snapshot_index]
    if prior_snaps:
        avg_clo = sum(ctx.closeness[j][user] for j in prior_snaps) / len(prior_snaps)
        avg_bet = sum(ctx.betweenness[j][user] for j in prior_snaps) / len(prior_snaps)
        last_j = prior_snaps[-1]
        last_clo = ctx.closeness[last_j][user]
        last_bet = ctx.betweenness[last_j][user]
    else:
        avg_clo = avg_bet = last_clo = last_bet = 0.0

    return FeatureVector(
        sentiment=float(sentiment),
        cognition=float(cognition),
        intent=float(intent),
        connectiveness=ctx.closeness[snapshot_index].get(user, 0.0),
        betweenness=ctx.betweenness[snapshot_index].get(user, 0.0),
        times_appeared_before=float(n_before),
        avg_sentiment_before=avg_sent,
        avg_cognition_before=avg_cog,
        avg_intent_before=avg_int,
        avg_connectiveness=avg_clo,
        avg_betweenness=avg_bet,
        last_sentiment=float(last_sent),
        last_cognition=float(last_cog),
        last_intent=float(last_int),
        last_connectiveness=last_clo,
        last_betweenness=last_bet,
        last_activity=last_activity,
        modularity=ctx.snapshot_modularity[snapshot_index],
    )


def build_dataset(labels, task, ctx):
    """Labeled examples for one task.

    JoinVsPrevious vectors are taken at the current snapshot t; LeaveVsStay
    vectors at t-1, the last snapshot where leavers are still present, which
    keeps the prediction causal. Duplicate (user, snapshot) rows collapse
    with positive-label precedence.
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
    examples = []
    for (user, snap) in sorted(rows, key=lambda k: (k[1], k[0])):
        examples.append(LabeledExample(
            user_id=user,
            snapshot_index=snap,
            task=task,
            label=rows[(user, snap)],
            features=assemble_features(ctx, user, snap),
        ))
    return examples


def dataset_csv(examples):
    """CSV task,snapshot_index,user_id,label,<18 feature columns>."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_COLUMNS)
    ordered = sorted(examples, key=lambda e: (e.task.value, e.snapshot_index, e.user_id))
    for ex in ordered:
        writer.writerow([ex.task.value, ex.snapshot_index, ex.user_id, ex.label]
                        + [repr(v) for v in astuple(ex.features)])
    return buf.getvalue()


def dataset_from_csv(fh):
    """(X, y) float64 arrays from a dataset_csv text, in row order. A label
    other than 0 or 1, or a feature that is not finite, is a ParseError."""
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
        if not all(map(math.isfinite, features)):
            raise ParseError(f"non-finite feature in dataset row at line {reader.line_num}")
        y.append(label)
        X.append(features)
    if not X:
        raise DegenerateDatasetError("the dataset holds no rows")
    return np.array(X), np.array(y)
