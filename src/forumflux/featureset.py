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
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import community as community_mod
from . import graph as graph_mod
from .errors import DegenerateDatasetError, ParseError
from .evolution import ROLES_BY_TASK, Task
from .lexifeat import text_measures


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


FEATURE_NAMES = [f.name for f in fields(FeatureVector)]
N_FEATURES = len(FEATURE_NAMES)
_feature_values = attrgetter(*FEATURE_NAMES)
DATASET_COLUMNS = ["task", "snapshot_index", "user_id", "label"] + FEATURE_NAMES


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
    with their modularity, and `activity`: per user, per window index in
    ascending order, the (time, TextMeasures) of that user's posts in time
    order. Posts are bucketed by `graph.posts_by_window`, and the users who
    post in each window must be exactly that window's graph nodes.
    """

    def __init__(self, posts, windows, graphs, communities_by_snapshot,
                 lexicon, patterns):
        self.windows = list(windows)
        self.graphs = {g.snapshot_index: g for g in graphs}
        self.communities = communities_by_snapshot
        posts = sorted(posts, key=attrgetter("created_at"))
        self.activity = {}
        for k, bucket in enumerate(graph_mod.posts_by_window(posts, self.windows)):
            for p in bucket:
                self.activity.setdefault(p.user_id, {}).setdefault(k, []).append(
                    (p.created_at, text_measures(p.body, lexicon, patterns)))
        posted = {(k, u) for u, by_window in self.activity.items() for k in by_window}
        if posted != {(k, u) for k, g in self.graphs.items() for u in g.nodes}:
            raise ParseError("the graphs do not hold the users who post in each window: they "
                             "were built on another window calendar; rerun 'snapshots'")

        centrality = {idx: graph_mod.centrality_all(g) for idx, g in self.graphs.items()}
        self.closeness = {idx: clo for idx, (clo, _) in centrality.items()}
        self.betweenness = {idx: bet for idx, (_, bet) in centrality.items()}
        self.snapshot_modularity = {
            idx: community_mod.modularity(self.graphs[idx], self.communities.get(idx, []))
            for idx in self.graphs
        }


def _text_sums(posts):
    """(sentiment, cognition, intent) summed over (time, TextMeasures) pairs."""
    return (sum(m.sentiment for _, m in posts), sum(m.cognition for _, m in posts),
            sum(m.intent for _, m in posts))


def assemble_features(ctx, user, snapshot_index):
    """The 18-feature vector for a user at a feature snapshot.

    History is the user's posts in earlier windows; the prior snapshots are
    the windows where the user posted, which the calendar check in
    FeatureContext makes the windows where the user is a node.
    """
    by_window = ctx.activity.get(user)
    if by_window is None:
        raise ParseError(f"unknown user {user!r}")
    if snapshot_index not in by_window:
        raise ParseError(f"user {user!r} has no activity at snapshot {snapshot_index}")
    window = ctx.windows[snapshot_index]  # a calendar index: the user posted in it
    sentiment, cognition, intent = _text_sums(by_window[snapshot_index])

    prior_snaps = [k for k in by_window if k < snapshot_index]
    history = [post for k in prior_snaps for post in by_window[k]]
    n_before = len(history)
    if history:
        avg_sent, avg_cog, avg_int = (total / n_before for total in _text_sums(history))
        since, last = history[-1]
        last_sent, last_cog, last_int = last.sentiment, last.cognition, last.intent
        avg_clo = sum(ctx.closeness[j][user] for j in prior_snaps) / len(prior_snaps)
        avg_bet = sum(ctx.betweenness[j][user] for j in prior_snaps) / len(prior_snaps)
        last_clo = ctx.closeness[prior_snaps[-1]][user]
        last_bet = ctx.betweenness[prior_snaps[-1]][user]
    else:
        avg_sent = avg_cog = avg_int = last_sent = last_cog = last_int = 0.0
        avg_clo = avg_bet = last_clo = last_bet = 0.0
        since = ctx.windows[0].start  # the corpus's first post
    last_activity = (window.start - since).total_seconds() / graph_mod.SECONDS_PER_DAY

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
                        + [repr(v) for v in _feature_values(ex.features)])
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
