from bisect import bisect_left
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumflux import featureset
from forumflux.errors import DegenerateDatasetError, ForumFluxError
from forumflux.evolution import Role, RoleLabel, Task, label_all
from forumflux.featureset import (FEATURE_NAMES, FeatureContext, FeatureVector,
                                  assemble_features, build_dataset, dataset_csv)
from forumflux.graph import SECONDS_PER_DAY, build_windows, window_graphs
from forumflux.lexifeat import IntentPatterns, Lexicon, text_measures

from conftest import T0, make_community, make_post

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


class TestUserWindowMeasures:
    """The current-window text fields: one user's posts inside one window."""

    def test_no_posts(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "happy thinking i will go"),
            ("p2", "t2", "u1", 1.1, "stone"),
        ])
        # the window-1 post matches no category; the window-0 post must not count
        fv = assemble_features(make_context(posts), "u1", 1)
        assert (fv.sentiment, fv.cognition, fv.intent) == (0, 0, 0)

    def test_sums_over_posts(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "happy stone"),
            ("p2", "t1", "u1", 0.2, "happy happy"),
            ("p3", "t1", "u2", 0.3, "happy"),
        ])
        assert assemble_features(make_context(posts), "u1", 0).sentiment == 3

    def test_manual_count_mixed(self):
        posts = day_posts([
            ("p1", "t1", "u1", 0.1, "thinking about it i will go"),
            ("p2", "t1", "u1", 0.2, "happy thinker here"),
        ])
        fv = assemble_features(make_context(posts), "u1", 0)
        assert (fv.sentiment, fv.cognition, fv.intent) == (1, 2, 1)


class TestAssembleFeatures:
    def test_first_appearance_defaults(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.0, "x"), ("p2", "t1", "b", 0.1, "x"),
            ("p3", "t2", "c", 2.5, "x"), ("p4", "t2", "d", 2.6, "x"),
        ])
        ctx = make_context(posts)
        fv = assemble_features(ctx, "c", 2)
        assert fv.times_appeared_before == 0
        for name in ("avg_sentiment_before", "avg_cognition_before", "avg_intent_before",
                     "avg_connectiveness", "avg_betweenness", "last_sentiment",
                     "last_cognition", "last_intent", "last_connectiveness",
                     "last_betweenness"):
            assert getattr(fv, name) == 0.0
        assert fv.last_activity == pytest.approx(2.0)  # corpus start to window-2 start

    def test_single_prior_snapshot_centrality(self):
        # window 0: path a-b-c (betweenness(b) = 1); window 1: b posts alone
        posts = day_posts([
            ("p1", "ta", "a", 0.1, "x"), ("p2", "ta", "b", 0.2, "x"),
            ("p3", "tb", "b", 0.3, "x"), ("p4", "tb", "c", 0.4, "x"),
            ("p5", "tc", "b", 1.5, "x"),
        ])
        ctx = make_context(posts)
        fv = assemble_features(ctx, "b", 1)
        assert fv.avg_betweenness == pytest.approx(1.0)
        assert fv.last_betweenness == pytest.approx(1.0)
        assert fv.avg_connectiveness == pytest.approx(1.0)  # path center closeness

    def test_prior_post_measures(self):
        # prior sentiments [2, 0, 1] then a current post
        posts = day_posts([
            ("p1", "t1", "u", 0.0, "happy happy"),
            ("p2", "t1", "u", 0.5, "stone"),
            ("p3", "t2", "u", 1.5, "happy stone"),
            ("p4", "t3", "u", 2.5, "quiet"),
        ])
        ctx = make_context(posts)
        fv = assemble_features(ctx, "u", 2)
        assert fv.times_appeared_before == 3
        assert fv.avg_sentiment_before == pytest.approx(1.0)
        assert fv.last_sentiment == 1.0
        assert fv.last_activity == pytest.approx(0.5)

    def test_unknown_user_rejected(self):
        posts = day_posts([("p1", "t1", "a", 0.1, "x")])
        ctx = make_context(posts)
        with pytest.raises(ForumFluxError):
            assemble_features(ctx, "ghost", 0)

    def test_absent_user_rejected(self):
        posts = day_posts([("p1", "t1", "a", 0.1, "x"), ("p2", "t1", "b", 1.1, "x")])
        ctx = make_context(posts)
        with pytest.raises(ForumFluxError):
            assemble_features(ctx, "b", 0)

    def test_recompute_is_identical(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.1, "happy thinking"),
            ("p2", "t1", "b", 0.2, "i will go"),
            ("p3", "t2", "a", 1.5, "stone"),
            ("p4", "t2", "b", 1.6, "happy"),
        ])
        fv1 = assemble_features(make_context(posts), "a", 1)
        fv2 = assemble_features(make_context(posts), "a", 1)
        assert astuple(fv1) == astuple(fv2)

    def test_history_depends_only_on_earlier_posts(self):
        posts = day_posts([
            ("p1", "t1", "a", 0.1, "happy"), ("p2", "t1", "b", 0.2, "thinking"),
            ("p3", "t2", "a", 1.5, "stone"), ("p4", "t2", "b", 1.6, "happy happy"),
            ("p5", "t3", "a", 2.5, "x"), ("p6", "t3", "b", 2.6, "x"),
        ])
        full = assemble_features(make_context(posts), "a", 2)
        # recompute history fields from the corpus truncated at window-2 start
        truncated = [p for p in posts
                     if (p.created_at - T0).total_seconds() < 2 * 86400]
        # keep one post inside window 2 so the user is still present
        ctx = make_context(truncated + [posts[4]])
        recomputed = assemble_features(ctx, "a", 2)
        for name in ("times_appeared_before", "avg_sentiment_before",
                     "avg_cognition_before", "avg_intent_before",
                     "last_sentiment", "last_cognition", "last_intent",
                     "last_activity"):
            assert getattr(full, name) == getattr(recomputed, name)


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
        join = build_dataset(labels, Task.JOIN_VS_PREVIOUS, ctx)
        leave = build_dataset(labels, Task.LEAVE_VS_STAY, ctx)
        assert sum(e.label for e in join) == 1
        assert sum(1 - e.label for e in join) == 3
        assert {e.user_id for e in join if e.label == 1} == {"e"}
        assert all(e.snapshot_index == 1 for e in join)
        assert sum(e.label for e in leave) == 1
        assert sum(1 - e.label for e in leave) == 3
        assert {e.user_id for e in leave if e.label == 1} == {"d"}
        assert all(e.snapshot_index == 0 for e in leave)  # causal: features at t-1

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
        rows = build_dataset(labels, Task.JOIN_VS_PREVIOUS, ctx)
        e_rows = [r for r in rows if r.user_id == "e"]
        assert len(e_rows) == 1
        assert e_rows[0].label == 1


def test_dataset_csv_header_and_order():
    ctx = scenario_context()
    rows = build_dataset(label_all(ctx.communities), Task.LEAVE_VS_STAY, ctx)
    out = dataset_csv(rows)
    lines = out.strip().splitlines()
    assert lines[0] == "task,snapshot_index,user_id,label," + ",".join(FEATURE_NAMES)
    assert len(lines) == 1 + 4
    assert len(FEATURE_NAMES) == featureset.N_FEATURES == 18


def reference_features(posts, ctx, user, snapshot_index):
    """The per-post assembly that the activity index replaced: the user's posts
    sorted by (time, input position), the history found with bisect_left on
    their times, and the prior snapshots read off the graph nodes."""
    measures = {p.post_id: text_measures(p.body, LEX, PATTERNS) for p in posts}
    entry = sorted((p.created_at, pos, p) for pos, p in enumerate(posts) if p.user_id == user)
    snapshots = sorted(k for k, g in ctx.graphs.items() if user in g.nodes)
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
        avg_clo = sum(ctx.closeness[j][user] for j in prior_snaps) / len(prior_snaps)
        avg_bet = sum(ctx.betweenness[j][user] for j in prior_snaps) / len(prior_snaps)
        last_clo = ctx.closeness[prior_snaps[-1]][user]
        last_bet = ctx.betweenness[prior_snaps[-1]][user]
    else:
        avg_clo = avg_bet = last_clo = last_bet = 0.0
    return FeatureVector(
        float(sentiment), float(cognition), float(intent),
        ctx.closeness[snapshot_index].get(user, 0.0),
        ctx.betweenness[snapshot_index].get(user, 0.0),
        float(n_before), avg_sent, avg_cog, avg_int, avg_clo, avg_bet,
        float(last_sent), float(last_cog), float(last_int), last_clo, last_bet,
        last_activity, ctx.snapshot_modularity[snapshot_index])


# hours on a 6-hour grid over 4 days: shared timestamps are common, and with
# 1-day windows a user often skips a window or posts in the first one only
_posts = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from(["t1", "t2", "t3"]),
              st.integers(0, 16).map(lambda k: 6 * k),
              st.sampled_from(["happy", "thinking i will", "stone", "happy happy think"])),
    min_size=1, max_size=25)


@settings(max_examples=80, deadline=None)
@given(_posts, st.sampled_from([1, 2]), st.randoms(use_true_random=False))
def test_assemble_features_matches_per_post_reference(spec, window_days, rnd):
    posts = [make_post(f"p{i}", thread, user, minutes=60 * hour, body=body)
             for i, (user, thread, hour, body) in enumerate(spec)]
    rnd.shuffle(posts)
    ctx = make_context(posts, window_days=window_days)
    for k, graph in ctx.graphs.items():
        for user in sorted(graph.nodes):
            got = astuple(assemble_features(ctx, user, k))
            want = astuple(reference_features(posts, ctx, user, k))
            for name, a, b in zip(FEATURE_NAMES, got, want):
                assert a == b, (name, user, k)
        for user in sorted(set("abcde") - graph.nodes.keys()):
            with pytest.raises(ForumFluxError):
                assemble_features(ctx, user, k)

