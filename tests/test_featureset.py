import random
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumflux import featureset
from forumflux.community import modularity
from forumflux.errors import DegenerateDatasetError, ForumFluxError
from forumflux.evolution import Role, RoleLabel, Task, label_all
from forumflux.featureset import (FEATURE_NAMES, FeatureContext, assemble_features,
                                  build_dataset, dataset_csv)
from forumflux.graph import SECONDS_PER_DAY, build_windows, window_graphs
from forumflux.lexifeat import IntentPatterns, Lexicon, text_measures

from conftest import T0, centrality_all, make_community, make_post

LEX = Lexicon(entries=(("happy", "posemo"), ("think*", "cogmech")))
PATTERNS = IntentPatterns(phrases=(("i", "will"),))


def make_context(posts, communities_by_snapshot=None, window_days=1):
    times = [p.created_at for p in posts]
    windows = build_windows(min(times), max(times), window_days)
    return FeatureContext(posts, windows, window_graphs(posts, windows),
                          communities_by_snapshot or {},
                          LEX, PATTERNS)


def day_posts(spec):
    """Posts from (post_id, thread, user, day, body) tuples; day 0 starts at T0."""
    return [make_post(pid, t, u, minutes=int(day * 24 * 60), body=body)
            for pid, t, u, day, body in spec]


def features(ctx, user, snapshot_index, *names):
    """The named columns of one key's feature row, read by FEATURE_NAMES.index."""
    row = assemble_features(ctx, [(user, snapshot_index)])[0].tolist()
    return tuple(row[FEATURE_NAMES.index(name)] for name in names)


TEXT = ("sentiment", "cognition", "intent")


class TestUserWindowMeasures:
    """The current-window text fields: one user's posts inside one window."""

    def test_no_posts(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "happy thinking i will go"),
            ("p2", "t2", "u1", 1.1, "stone"),
        ])
        # the window-1 post matches no category; the window-0 post must not count
        assert features(make_context(posts), "u1", 1, *TEXT) == (0, 0, 0)

    def test_sums_over_posts(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "happy stone"),
            ("p2", "t1", "u1", 0.2, "happy happy"),
            ("p3", "t1", "u2", 0.3, "happy"),
        ])
        assert features(make_context(posts), "u1", 0, "sentiment") == (3,)

    def test_manual_count_mixed(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "thinking about it i will go"),
            ("p2", "t1", "u1", 0.2, "happy thinker here"),
        ])
        assert features(make_context(posts), "u1", 0, *TEXT) == (1, 2, 1)


class TestAssembleFeatures:
    def test_first_appearance_defaults(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.0, "x"), ("p2", "t1", "b", 0.1, "x"),
            ("p3", "t2", "c", 2.5, "x"), ("p4", "t2", "d", 2.6, "x"),
        ])
        history = ("times_appeared_before", "avg_sentiment_before", "avg_cognition_before",
                   "avg_intent_before", "avg_connectiveness", "avg_betweenness",
                   "last_sentiment", "last_cognition", "last_intent", "last_connectiveness",
                   "last_betweenness")
        ctx = make_context(posts)
        assert features(ctx, "c", 2, *history) == (0.0,) * len(history)
        assert features(ctx, "c", 2, "last_activity") == (2.0,)  # corpus start to window 2

    def test_single_prior_snapshot_centrality(self):
        # window 0: path a-b-c (betweenness(b) = 1); window 1: b posts alone
        posts = day_posts([
            ("p1", "ta", "a", 0.1, "x"), ("p2", "ta", "b", 0.2, "x"),
            ("p3", "tb", "b", 0.3, "x"), ("p4", "tb", "c", 0.4, "x"),
            ("p5", "tc", "b", 1.5, "x"),
        ])
        avg_bet, last_bet, avg_clo = features(make_context(posts), "b", 1, "avg_betweenness",
                                              "last_betweenness", "avg_connectiveness")
        assert avg_bet == pytest.approx(1.0)
        assert last_bet == pytest.approx(1.0)
        assert avg_clo == pytest.approx(1.0)  # path center closeness

    def test_prior_post_measures(self):
        # prior sentiments [2, 0, 1] then a current post
        posts = day_posts([
            ("p1", "t1", "u", 0.0, "happy happy"),
            ("p2", "t1", "u", 0.5, "stone"),
            ("p3", "t2", "u", 1.5, "happy stone"),
            ("p4", "t3", "u", 2.5, "quiet"),
        ])
        n_before, avg_sent, last_sent, last_activity = features(
            make_context(posts), "u", 2, "times_appeared_before", "avg_sentiment_before",
            "last_sentiment", "last_activity")
        assert n_before == 3
        assert avg_sent == pytest.approx(1.0)
        assert last_sent == 1.0
        assert last_activity == pytest.approx(0.5)

    def test_unknown_user_rejected(self):
        posts = day_posts([("p1", "t1", "a", 0.1, "x")])
        ctx = make_context(posts)
        with pytest.raises(ForumFluxError, match="unknown user 'ghost'"):
            assemble_features(ctx, [("a", 0), ("ghost", 0)])

    def test_absent_user_rejected(self):
        posts = day_posts([("p1", "t1", "a", 0.1, "x"), ("p2", "t1", "b", 1.1, "x")])
        ctx = make_context(posts)
        with pytest.raises(ForumFluxError, match="user 'b' has no activity at snapshot 0"):
            assemble_features(ctx, [("a", 0), ("b", 0)])

    def test_recompute_is_identical(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.1, "happy thinking"),
            ("p2", "t1", "b", 0.2, "i will go"),
            ("p3", "t2", "a", 1.5, "stone"),
            ("p4", "t2", "b", 1.6, "happy"),
        ])
        keys = [("a", 1), ("b", 1)]
        np.testing.assert_array_equal(assemble_features(make_context(posts), keys),
                                      assemble_features(make_context(posts), keys))

    def test_history_depends_only_on_earlier_posts(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.1, "happy"), ("p2", "t1", "b", 0.2, "thinking"),
            ("p3", "t2", "a", 1.5, "stone"), ("p4", "t2", "b", 1.6, "happy happy"),
            ("p5", "t3", "a", 2.5, "x"), ("p6", "t3", "b", 2.6, "x"),
        ])
        history = ("times_appeared_before", "avg_sentiment_before", "avg_cognition_before",
                   "avg_intent_before", "last_sentiment", "last_cognition", "last_intent",
                   "last_activity")
        full = features(make_context(posts), "a", 2, *history)
        # recompute history fields from the corpus truncated at window-2 start
        truncated = [p for p in posts
                     if (p.created_at - T0).total_seconds() < 2 * 86400]
        # keep one post inside window 2 so the user is still present
        assert features(make_context(truncated + [posts[4]]), "a", 2, *history) == full


def scenario_context():
    """Communities {a,b,c,d} at snapshot 0 -> {a,b,c,e} at snapshot 1."""
    posts = day_posts([
        ("p1", "t1", "a", 0.1, "x"), ("p2", "t1", "b", 0.2, "x"),
        ("p3", "t1", "c", 0.3, "x"), ("p4", "t1", "d", 0.4, "x"),
        ("p5", "t2", "a", 1.1, "x"), ("p6", "t2", "b", 1.2, "x"),
        ("p7", "t2", "c", 1.3, "x"), ("p8", "t2", "e", 1.4, "x"),
    ])
    communities = {
        0: [make_community("abcd", 0, snapshot_index=0)],
        1: [make_community("abce", 0, snapshot_index=1)],
    }
    return make_context(posts, communities)


class TestBuildDataset:
    def test_scenario_counts(self):
        ctx = scenario_context()
        labels = label_all(ctx.communities)
        join_keys, join_y, join_X = build_dataset(labels, Task.JOIN_VS_PREVIOUS, ctx)
        leave_keys, leave_y, leave_X = build_dataset(labels, Task.LEAVE_VS_STAY, ctx)
        assert join_keys == [("a", 1), ("b", 1), ("c", 1), ("e", 1)]
        assert join_y.tolist() == [0, 0, 0, 1]
        assert leave_keys == [("a", 0), ("b", 0), ("c", 0), ("d", 0)]  # causal: features at t-1
        assert leave_y.tolist() == [0, 0, 0, 1]
        assert join_X.shape == leave_X.shape == (4, featureset.N_FEATURES)
        np.testing.assert_array_equal(leave_X, assemble_features(ctx, leave_keys))

    def test_degenerate_dataset_rejected(self):
        ctx = scenario_context()
        stay_only = [l for l in label_all(ctx.communities) if l.role is Role.STAYING]
        with pytest.raises(DegenerateDatasetError):
            build_dataset(stay_only, Task.LEAVE_VS_STAY, ctx)

    def test_duplicate_user_positive_precedence(self):
        ctx = scenario_context()
        labels = [
            RoleLabel(user_id="e", snapshot_index=1, role=Role.PREVIOUS, community_id=0),
            RoleLabel(user_id="e", snapshot_index=1, role=Role.JOINING, community_id=1),
            RoleLabel(user_id="a", snapshot_index=1, role=Role.PREVIOUS, community_id=0),
        ]
        keys, y, _ = build_dataset(labels, Task.JOIN_VS_PREVIOUS, ctx)
        assert keys == [("a", 1), ("e", 1)]
        assert y.tolist() == [0, 1]


def test_dataset_csv_header_and_order():
    ctx = scenario_context()
    out = dataset_csv(Task.LEAVE_VS_STAY,
                      *build_dataset(label_all(ctx.communities), Task.LEAVE_VS_STAY, ctx))
    lines = out.strip().splitlines()
    assert lines[0] == "task,snapshot_index,user_id,label," + ",".join(FEATURE_NAMES)
    assert len(lines) == 1 + 4
    assert len(FEATURE_NAMES) == featureset.N_FEATURES == 18


def reference_features(posts, ctx, user, snapshot_index):
    """The per-post assembly that the cell columns replaced, as a tuple in
    FEATURE_NAMES order: the user's posts sorted by (time, input position), the
    history found with bisect_left on their times, the prior snapshots read off
    the graph nodes, and centrality and modularity computed here per graph."""
    measures = {p.post_id: text_measures(p.body, LEX, PATTERNS) for p in posts}
    entry = sorted((p.created_at, pos, p) for pos, p in enumerate(posts) if p.user_id == user)
    snapshots = sorted(k for k, g in ctx.graphs.items() if user in g.nodes)
    closeness, betweenness = {}, {}
    for k, g in ctx.graphs.items():
        closeness[k], betweenness[k] = centrality_all(g)
    window = ctx.windows[snapshot_index]
    in_window = [p for ts, _, p in entry if window.start <= ts < window.end]
    sentiment = sum(measures[p.post_id].sentiment for p in in_window)
    cognition = sum(measures[p.post_id].cognition for p in in_window)
    intent = sum(measures[p.post_id].intent for p in in_window)

    n_before = bisect_left([ts for ts, _, _ in entry], window.start)
    if n_before > 0:
        prior = [measures[entry[k][2].post_id] for k in range(n_before)]
        avg_sent = sum(m.sentiment for m in prior) / n_before
        avg_cog = sum(m.cognition for m in prior) / n_before
        avg_int = sum(m.intent for m in prior) / n_before
        last_sent, last_cog, last_int = prior[-1].sentiment, prior[-1].cognition, prior[-1].intent
        last_activity = (window.start - entry[n_before - 1][0]).total_seconds() / SECONDS_PER_DAY
    else:
        avg_sent = avg_cog = avg_int = last_sent = last_cog = last_int = 0.0
        corpus_start = min(p.created_at for p in posts)
        last_activity = (window.start - corpus_start).total_seconds() / SECONDS_PER_DAY

    prior_snaps = [j for j in snapshots if j < snapshot_index]
    if prior_snaps:
        avg_clo = sum(closeness[j][user] for j in prior_snaps) / len(prior_snaps)
        avg_bet = sum(betweenness[j][user] for j in prior_snaps) / len(prior_snaps)
        last_clo = closeness[prior_snaps[-1]][user]
        last_bet = betweenness[prior_snaps[-1]][user]
    else:
        avg_clo = avg_bet = last_clo = last_bet = 0.0
    return (
        float(sentiment), float(cognition), float(intent),
        closeness[snapshot_index][user], betweenness[snapshot_index][user],
        float(n_before), avg_sent, avg_cog, avg_int, avg_clo, avg_bet,
        float(last_sent), float(last_cog), float(last_int), last_clo, last_bet,
        last_activity,
        modularity(ctx.graphs[snapshot_index], ctx.communities.get(snapshot_index, [])))


# hours on a 6-hour grid over 4 days: shared timestamps are common, and with
# 1-day windows a user often skips a window or posts in the first one only
_posts = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from(["t1", "t2", "t3"]),
              st.integers(0, 16).map(lambda k: 6 * k),
              st.sampled_from(["happy", "thinking i will", "stone", "happy happy think"])),
    min_size=1, max_size=25)


@settings(max_examples=80, deadline=None)
@given(_posts, st.sampled_from([1, 2]), st.randoms(use_true_random=False))
# c first posts in window 1, with no history
@example([("a", "t1", 0, "happy"), ("b", "t1", 6, "stone"), ("a", "t2", 30, "thinking i will"),
          ("c", "t2", 36, "happy happy think")], 1, random.Random(0))
# a posts in windows 0 and 2 and skips window 1, where only b posts
@example([("a", "t1", 0, "happy happy think"), ("a", "t1", 12, "thinking i will"),
          ("b", "t2", 6, "stone"), ("b", "t2", 30, "happy"), ("a", "t3", 48, "stone"),
          ("b", "t3", 54, "thinking i will")], 1, random.Random(0))
# window 1 holds no post: a graph with no node between two with nodes
@example([("a", "t1", 0, "happy"), ("b", "t1", 18, "thinking i will"),
          ("a", "t2", 48, "happy happy think"), ("c", "t2", 54, "stone")], 1, random.Random(0))
def test_assemble_features_matches_per_post_reference(spec, window_days, rnd):
    posts = [make_post(f"p{i}", thread, user, minutes=60 * hour, body=body)
             for i, (user, thread, hour, body) in enumerate(spec)]
    rnd.shuffle(posts)
    ctx = make_context(posts, window_days=window_days)
    keys = [(user, k) for k, graph in ctx.graphs.items() for user in sorted(graph.nodes)]
    X = assemble_features(ctx, keys)
    assert X.shape == (len(keys), len(FEATURE_NAMES))
    for (user, k), row in zip(keys, X.tolist()):
        want = reference_features(posts, ctx, user, k)
        for name, a, b in zip(FEATURE_NAMES, row, want):
            assert a == b, (name, user, k)
    n_windows = len(ctx.windows)
    for k, graph in ctx.graphs.items():
        for user in sorted(set("abcde") - graph.nodes.keys()):
            with pytest.raises(ForumFluxError):
                assemble_features(ctx, [(user, k)])
    for user, _ in keys:  # user * n_windows + snapshot would alias a neighbouring cell
        for snap in (-1, n_windows):
            with pytest.raises(ForumFluxError, match="has no activity"):
                assemble_features(ctx, [(user, snap)])
