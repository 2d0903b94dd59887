"""Forum corpus parsing, summary statistics, and seeded synthetic corpora.

Input posts arrive as JSONL (one object per line) or RFC-4180 CSV with the
fixed column order post_id,thread_id,user_id,created_at,body. Timestamps must
be ISO-8601 with an explicit UTC offset; naive timestamps are rejected rather
than guessed so that downstream windowing never drifts.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring
from operator import itemgetter

import numpy as np

from .errors import ConfigError, ParseError
from .lexifeat import (COGNITION_CATEGORIES, SENTIMENT_CATEGORIES, default_intent_patterns,
                       default_lexicon)


@dataclass(frozen=True)
class PostRecord:
    post_id: str
    thread_id: str
    user_id: str
    created_at: datetime  # always tz-aware UTC, second precision
    body: str


CSV_COLUMNS = [f.name for f in fields(PostRecord)]


@dataclass(frozen=True)
class CorpusStats:
    post_count: int
    user_count: int
    thread_count: int
    avg_thread_depth: float
    first_post: datetime
    last_post: datetime


def parse_timestamp(text, where=""):
    """Parse an ISO-8601 timestamp with explicit offset into UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}{where}") from None
    if ts.tzinfo is None:
        raise ParseError(f"naive timestamp {text!r}{where}: UTC offset required")
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:
        raise ParseError(f"timestamp {text!r}{where} lies outside years 1-9999 in UTC") from None
    return ts.replace(microsecond=0) if ts.microsecond else ts


def format_timestamp(ts):
    """ts in UTC as YYYY-MM-DDTHH:MM:SSZ, four-digit year; inverse of parse_timestamp."""
    return ts.astimezone(timezone.utc).isoformat()[:19] + "Z"  # isoformat pads the year


_FIELDS = frozenset(CSV_COLUMNS)
_field_values = itemgetter(*CSV_COLUMNS)
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")  # from \u escapes, or bad bytes by surrogateescape
# one JSONL row, as json.dumps(..., ensure_ascii=False) writes the five fields in column order
_ROW = "{" + ", ".join(f'"{k}": %s' for k in CSV_COLUMNS) + "}\n"


def _make_record(values, where, seen_ids, check_text=True):
    """The PostRecord of values, the five fields' text in column order, once checked."""
    bad = check_text and [k for k, v in zip(CSV_COLUMNS, values) if _SURROGATE_RE.search(v)]
    if bad:
        raise ParseError(f"field {bad[0]!r}{where} is not Unicode text: it holds a byte that "
                         "is not UTF-8 or a lone surrogate escape")
    post_id, thread_id, user_id, created_at, body = values
    if not post_id:
        raise ParseError(f"empty post_id{where}")
    if not thread_id:
        raise ParseError(f"empty thread_id{where}")
    if not user_id:
        raise ParseError(f"empty user_id{where}")
    if "\r" in user_id:  # the artifact CSVs end lines with \n and leave \r unquoted
        raise ParseError(f"carriage return in user_id{where}")
    if len(user_id) > csv.field_size_limit():  # the artifact CSVs could not read it back
        raise ParseError(f"user_id{where} is longer than {csv.field_size_limit()} characters")
    if post_id in seen_ids:
        raise ParseError(f"duplicate post_id {post_id!r}{where}")
    seen_ids.add(post_id)
    return PostRecord(post_id, thread_id, user_id, parse_timestamp(created_at, where), body)


def parse_posts(stream, fmt):
    """Parse a byte stream of posts; fmt is 'jsonl' or 'csv'.

    Records come back in input order. Any malformed row, bad timestamp, or
    duplicate post_id aborts with a ParseError naming the offending line.
    """
    text = io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape", newline="")
    seen = set()
    records = []
    try:
        if fmt == "jsonl":
            for line_no, line in enumerate(text, start=1):
                if not line.strip():
                    continue
                where = f" at line {line_no}"
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # bad JSON, an int too long, too deep
                    raise ParseError(f"malformed JSON{where}: {exc}") from None
                if not isinstance(obj, dict):
                    raise ParseError(f"malformed row{where}: expected object")
                for key, value in obj.items():  # integers are kept as their decimal text
                    if type(value) is not str:
                        if type(value) is not int and key in _FIELDS:
                            raise ParseError(f"field {key!r}{where} must be a string or an "
                                             f"integer, got {json.dumps(value)[:40]}")
                        obj[key] = str(value)
                if obj.keys() != _FIELDS:
                    missing = [k for k in CSV_COLUMNS if k not in obj]
                    raise ParseError(
                        f"missing field(s) {missing}{where}" if missing else
                        f"unknown field(s) {[k for k in obj if k not in _FIELDS]}{where}")
                records.append(_make_record(_field_values(obj), where, seen,
                                            check_text="\\u" in line or not line.isascii()))
        else:
            reader = csv.reader(text)
            try:
                header = next(reader, None)
                if header is None:
                    return []
                if header != CSV_COLUMNS:
                    raise ParseError(f"bad CSV header {header}, expected {CSV_COLUMNS}")
                for row in reader:
                    if len(row) != len(CSV_COLUMNS):
                        raise ParseError(f"malformed row at line {reader.line_num}: "
                                         f"{len(row)} columns")
                    records.append(_make_record(row, f" at line {reader.line_num}", seen))
            except csv.Error as exc:  # a field longer than csv.field_size_limit()
                raise ParseError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    finally:  # a collected wrapper would close the caller's stream
        text.detach()
    return records


def serialize_posts(records):
    """Serialize records to JSONL bytes; inverse of parse_posts with fmt 'jsonl'."""
    enc = encode_basestring
    buf = io.StringIO()  # rows are made as they are written, never all held at once
    buf.writelines(_ROW % (enc(p.post_id), enc(p.thread_id), enc(p.user_id),
                           enc(format_timestamp(p.created_at)), enc(p.body)) for p in records)
    return buf.getvalue().encode("utf-8")


def corpus_stats(posts):
    users = {p.user_id for p in posts}
    threads = {p.thread_id for p in posts}
    times = [p.created_at for p in posts]
    return CorpusStats(
        post_count=len(posts),
        user_count=len(users),
        thread_count=len(threads),
        avg_thread_depth=len(posts) / len(threads),
        first_post=min(times),
        last_post=max(times),
    )


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthParams:
    n_users: int = 240
    n_threads: int = 384
    n_windows: int = 12
    window_days: int = 24
    churn_signal_strength: float = 1.0

    def __post_init__(self):
        for name in ("n_threads", "n_windows", "window_days"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_threads > 2**63 - 1:  # the generator draws thread indices as int64
            raise ConfigError(f"n_threads must be at most 2**63 - 1, got {self.n_threads}")
        if self.n_users < 6:
            # fewer than 6 users leave a community roster too small to rotate half of it
            raise ConfigError(f"n_users must be at least 6, got {self.n_users}")
        if self.churn_signal_strength < 0:
            raise ConfigError("churn_signal_strength must be non-negative, "
                              f"got {self.churn_signal_strength}")


_SYNTH_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)

# Neutral vocabulary; none of these words match the bundled lexicon entries
# (including its prefix patterns) so they carry no category signal.
_FILLER_WORDS = [
    "forum", "thread", "topic", "exam", "doctor", "student", "residency",
    "school", "hospital", "question", "answer", "page", "week", "year",
    "month", "people", "group", "case", "board", "lecture", "book",
    "subject", "city", "room", "table", "paper", "note", "slide", "video",
]


def _community_rosters(rng, pool, n_windows):
    """Per-window active membership with exactly half the roster rotating out.

    Keeping turnover at exactly 50% of the roster makes the downstream
    leave-vs-stay classes balanced, which is what lets the no-signal setting
    behave like a fair coin instead of a degenerate majority vote.
    """
    roster_size = min(14, (2 * len(pool)) // 3)
    roster_size -= roster_size % 2
    turnover = roster_size // 2
    rosters = []
    current = sorted(rng.choice(pool, size=roster_size, replace=False).tolist())
    rosters.append(current)
    for _ in range(1, n_windows):
        stayers = sorted(rng.choice(current, size=roster_size - turnover, replace=False).tolist())
        outside = sorted(set(pool) - set(current))
        joiners = sorted(rng.choice(outside, size=turnover, replace=False).tolist())
        current = sorted(stayers + joiners)
        rosters.append(current)
    return rosters


def _signal_words():
    exact = [(word, cat) for word, cat in default_lexicon().entries if not word.endswith("*")]
    sentiment_words = sorted(w for w, cat in exact if cat in SENTIMENT_CATEGORIES)
    cognition_words = sorted(w for w, cat in exact if cat in COGNITION_CATEGORIES)
    phrases = [" ".join(p) for p in default_intent_patterns().phrases]
    return sentiment_words, cognition_words, phrases


def _post_body(rng, cognition_p, sentiment_words, cognition_words, phrases):
    n_words = 8 + int(rng.integers(0, 5))
    words = []
    for _ in range(n_words):
        u = rng.random()
        if u < cognition_p:
            words.append(cognition_words[int(rng.integers(0, len(cognition_words)))])
        elif u < cognition_p + 0.12:
            words.append(sentiment_words[int(rng.integers(0, len(sentiment_words)))])
        else:
            words.append(_FILLER_WORDS[int(rng.integers(0, len(_FILLER_WORDS)))])
    if rng.random() < 0.05:
        words.append(phrases[int(rng.integers(0, len(phrases)))])
    return " ".join(words)


def generate_synthetic_forum(seed, params=SynthParams()):
    """Generate a deterministic forum corpus with a planted churn signal.

    Users are split into disjoint community pools. Each window, half of a
    community's active roster rotates out and an equal number rotates in.
    Users about to rotate out ("leavers") post in fewer threads and use fewer
    cognition words than stayers, with the gap scaled by churn_signal_strength
    up to 1, the full signal. No labels are written anywhere: the signal lives
    only in post text and thread co-participation, and the pipeline has to
    recover it. The calendar must end by year 9999.
    """
    p = params
    try:
        _SYNTH_EPOCH + timedelta(days=p.n_windows * p.window_days)
    except OverflowError:
        raise ConfigError(f"config keys 'window_days' and 'synth_n_windows': {p.n_windows} "
                          f"windows of {p.window_days} days end after year 9999") from None
    rng = np.random.default_rng(seed)
    sentiment_words, cognition_words, phrases = _signal_words()

    pool_size = 30 if p.n_users >= 30 else p.n_users
    n_comm = max(1, p.n_users // pool_size)
    user_ids = [f"u{i:04d}" for i in range(p.n_users)]
    pools = [user_ids[c * pool_size:(c + 1) * pool_size] for c in range(n_comm)]
    rosters = [_community_rosters(rng, pool, p.n_windows) for pool in pools]

    threads_per_cw = max(3, p.n_threads // (n_comm * p.n_windows))
    window_seconds = p.window_days * 86400
    base_cognition_p = 0.35

    posts = []
    seq = 0
    for w in range(p.n_windows):
        window_start = _SYNTH_EPOCH + timedelta(days=w * p.window_days)
        anchored = False
        for c in range(n_comm):
            roster = rosters[c][w]
            next_roster = set(rosters[c][w + 1]) if w + 1 < p.n_windows else None
            for user in roster:
                is_leaver = next_roster is not None and user not in next_roster
                s = min(p.churn_signal_strength, 1.0) if is_leaver else 0.0
                n_threads_user = max(1, min(threads_per_cw, round(4 - 3 * s)))
                chosen = rng.choice(threads_per_cw, size=n_threads_user, replace=False)
                cognition_p = base_cognition_p * (1.0 - s)
                for k in chosen.tolist():
                    n_posts = 1 + (1 if rng.random() < 0.5 * (1.0 - s) else 0)
                    for _ in range(n_posts):
                        offset = 0 if not anchored else int(rng.integers(0, window_seconds))
                        anchored = True
                        posts.append(PostRecord(
                            post_id=f"p{seq:06d}",
                            thread_id=f"t{c:02d}_{w:03d}_{k}",
                            user_id=user,
                            created_at=window_start + timedelta(seconds=offset),
                            body=_post_body(rng, cognition_p, sentiment_words,
                                            cognition_words, phrases),
                        ))
                        seq += 1
    return posts
