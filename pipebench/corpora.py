"""Seeded forum corpora for the pipeline benchmark, written as JSONL posts.

Both generators are pure numpy and independent of forumflux, so a change to
the program never changes the benchmark's inputs. Each plants the same churn
signal as `ingest.generate_synthetic_forum`: a user about to leave posts in
fewer threads and uses fewer cognition words, scaled by `signal`.

- `pools_corpus`: disjoint 30-user pools with a 14-user roster per window of
  which half rotates out, the shape of `ingest.generate_synthetic_forum`.
  Every window graph is a union of small cliques.
- `forum_corpus`: overlapping communities (30% of users in two), power-law
  user activity, heavy-tailed thread sizes, a few cross-community threads,
  and a fixed share of the active users leaving after each window. Window
  graphs are dense, connected and hub-heavy.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import numpy as np

EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)
WINDOW_DAYS = 24
_WINDOW_SECONDS = WINDOW_DAYS * 86400

# Words the bundled lexicon files as cognition / sentiment, phrases it files
# as intent, and filler that matches no entry (prefix entries included).
COGNITION_WORDS = (
    "think", "know", "because", "reason", "consider", "wonder", "believe",
    "understand", "realize", "learn", "analyze", "conclude", "logic", "reflect",
    "assume", "theory", "concept", "insight", "doubt", "solve", "evaluate",
    "interpret", "figure",
)
SENTIMENT_WORDS = (
    "happy", "glad", "love", "great", "good", "nice", "awesome", "fun",
    "thanks", "calm", "bad", "awful", "worried", "afraid", "nervous", "upset",
    "angry", "mad", "hate", "stupid", "sad", "unhappy", "lonely", "alone",
)
INTENT_PHRASES = ("i will", "i am going to", "i plan to", "i want to", "we will")
FILLER_WORDS = (
    "forum", "thread", "topic", "exam", "doctor", "student", "residency",
    "school", "hospital", "question", "answer", "page", "week", "year",
    "month", "people", "group", "case", "board", "lecture", "book",
    "subject", "city", "room", "table", "paper", "note", "slide", "video",
)
BASE_COGNITION_P = 0.35
SENTIMENT_P = 0.12
INTENT_P = 0.05
DUAL_SHARE = 0.3
LEAVE_SHARE = 0.35
MAX_ACTIVITY = 10.0
MAX_THREAD = 25


def _bodies(rng, cognition_p):
    n = len(cognition_p)
    n_words = 8 + rng.integers(0, 5, size=n)
    owner = np.repeat(np.arange(n), n_words)
    u = rng.random(owner.size)
    cp = cognition_p[owner]
    vocab = np.array(COGNITION_WORDS + SENTIMENT_WORDS + FILLER_WORDS, dtype=object)
    n_cog, n_sent = len(COGNITION_WORDS), len(SENTIMENT_WORDS)
    pick = np.where(
        u < cp, rng.integers(0, n_cog, size=owner.size),
        np.where(u < cp + SENTIMENT_P, n_cog + rng.integers(0, n_sent, size=owner.size),
                 n_cog + n_sent + rng.integers(0, len(FILLER_WORDS), size=owner.size)))
    words = vocab[pick]
    ends = np.cumsum(n_words)
    intent = rng.random(n) < INTENT_P
    phrase = rng.integers(0, len(INTENT_PHRASES), size=n)
    bodies = []
    start = 0
    for i, end in enumerate(ends):
        text = " ".join(words[start:end])
        if intent[i]:
            text += " " + INTENT_PHRASES[phrase[i]]
        bodies.append(text)
        start = end
    return bodies


def to_jsonl(rng, thread, user, window, cognition_p):
    """JSONL bytes of posts given column-wise, with their post count.

    Post ids are p000000...; timestamps fall uniformly in each post's window,
    except the first post, which sits at the start of window 0 so that the
    pipeline's window calendar lines up with the generator's.
    """
    n = len(user)
    offsets = rng.integers(0, _WINDOW_SECONDS, size=n)
    offsets[0] = 0
    bodies = _bodies(rng, np.array(cognition_p))
    lines = []
    for i in range(n):
        ts = EPOCH + timedelta(days=int(window[i]) * WINDOW_DAYS, seconds=int(offsets[i]))
        lines.append(json.dumps({
            "post_id": f"p{i:06d}",
            "thread_id": thread[i],
            "user_id": user[i],
            "created_at": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "body": bodies[i],
        }))
    return ("\n".join(lines) + "\n").encode("utf-8"), n


def pools_corpus(seed, n_users, n_threads, n_windows, signal):
    """Disjoint 30-user pools; JSONL bytes and the post count."""
    rng = np.random.default_rng([seed, 1])
    pool_size, roster_size = 30, 14
    turnover = roster_size // 2
    n_pools = n_users // pool_size
    threads_per_cw = max(3, n_threads // (n_pools * n_windows))
    thread, user, window, cog = [], [], [], []
    for c in range(n_pools):
        pool = np.arange(c * pool_size, (c + 1) * pool_size)
        rosters = [np.sort(rng.choice(pool, size=roster_size, replace=False))]
        for _ in range(1, n_windows):
            current = rosters[-1]
            stayers = rng.choice(current, size=roster_size - turnover, replace=False)
            joiners = rng.choice(np.setdiff1d(pool, current), size=turnover, replace=False)
            rosters.append(np.sort(np.concatenate([stayers, joiners])))
        for w in range(n_windows):
            nxt = rosters[w + 1] if w + 1 < n_windows else None
            for u in rosters[w]:
                s = signal if nxt is not None and u not in nxt else 0.0
                k = max(1, min(threads_per_cw, round(4 - 3 * s)))
                for t in rng.choice(threads_per_cw, size=k, replace=False):
                    n_posts = 2 if rng.random() < 0.5 * (1.0 - s) else 1
                    thread += [f"t{c:03d}_{w:03d}_{t}"] * n_posts
                    user += [f"u{u:05d}"] * n_posts
                    window += [w] * n_posts
                    cog += [BASE_COGNITION_P * (1.0 - s)] * n_posts
    return to_jsonl(rng, thread, user, window, cog)


def _lomax_quantiles(n, shape):
    """n evenly spaced quantiles of a Lomax (shifted Pareto) law.

    Heavy-tailed, yet the same multiset for every seed: only who gets which
    value is random, which keeps run time steady across seeds.
    """
    u = (np.arange(n) + 0.5) / n
    return (1.0 - u) ** (-1.0 / shape) - 1.0


def forum_corpus(seed, n_users, n_communities, n_windows, threads_per_cw, signal):
    """Overlapping, heavy-tailed communities; JSONL bytes and the post count."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(n_users)
    home = order % n_communities
    second = (home + 1 + rng.integers(0, n_communities - 1, size=n_users)) % n_communities
    dual = rng.permutation(n_users) < round(DUAL_SHARE * n_users)
    activity = np.minimum(1.0 + _lomax_quantiles(n_users, 1.5), MAX_ACTIVITY)[order]
    thread_sizes = np.minimum(2 + np.floor(3.0 * _lomax_quantiles(threads_per_cw, 1.3)),
                              MAX_THREAD).astype(int)

    # half the users are active in a window; a fixed share of them leaves
    # after it and as many inactive users join
    n_active = n_users // 2
    n_turn = round(LEAVE_SHARE * n_active)
    active = np.zeros((n_users, n_windows), dtype=bool)
    active[rng.choice(n_users, size=n_active, replace=False), 0] = True
    for w in range(1, n_windows):
        now = active[:, w - 1].copy()
        now[rng.choice(np.flatnonzero(now), size=n_turn, replace=False)] = False
        now[rng.choice(np.flatnonzero(~active[:, w - 1]), size=n_turn, replace=False)] = True
        active[:, w] = now
    leaving = np.zeros_like(active)
    leaving[:, :-1] = active[:, :-1] & ~active[:, 1:]

    thread, user, window, cog = [], [], [], []

    def post(tid, members, w):
        s = signal * leaving[members, w]
        again = rng.random(len(members)) < 0.5 * (1.0 - s)
        for u, twice, su in zip(members, again, s):
            n_posts = 2 if twice else 1
            thread.extend([tid] * n_posts)
            user.extend([f"u{u:05d}"] * n_posts)
            window.extend([w] * n_posts)
            cog.extend([BASE_COGNITION_P * (1.0 - su)] * n_posts)

    for w in range(n_windows):
        weight = activity * (1.0 - 0.8 * signal * leaving[:, w])
        seen = np.zeros(n_users, dtype=bool)
        for c in range(n_communities):
            members = np.flatnonzero(active[:, w] & ((home == c) | (dual & (second == c))))
            p = weight[members] / weight[members].sum()
            for t, size in enumerate(thread_sizes):
                chosen = np.sort(rng.choice(members, size=min(size, members.size),
                                            replace=False, p=p))
                seen[chosen] = True
                post(f"t{c:02d}_{w:03d}_{t}", chosen, w)
            # one thread per window shared with the next community
            pair = np.union1d(members, np.flatnonzero(
                active[:, w] & (home == (c + 1) % n_communities)))
            chosen = np.sort(rng.choice(pair, size=min(pair.size, 6), replace=False))
            seen[chosen] = True
            post(f"x{c:02d}_{w:03d}", chosen, w)
        # every active user posts at least once, in a home-community thread
        for u in np.flatnonzero(active[:, w] & ~seen):
            post(f"t{home[u]:02d}_{w:03d}_{rng.integers(threads_per_cw)}", [u], w)
    return to_jsonl(rng, thread, user, window, cog)
