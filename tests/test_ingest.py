import csv
import io
import json
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumflux import graph, ingest
from forumflux.errors import ConfigError, ParseError
from forumflux.ingest import PostRecord, SynthParams

from conftest import T0, feature_context, make_graph, make_post, serialize


def parse_bytes(data, fmt):
    return ingest.parse_posts(io.BytesIO(data), fmt)


class TestParsePosts:
    def test_empty_stream(self):
        assert parse_bytes(b"", "jsonl") == []
        assert parse_bytes(b"", "csv") == []

    def test_single_jsonl_row(self):
        row = (b'{"post_id":"p1","thread_id":"t1","user_id":"u1",'
               b'"created_at":"2000-04-21T00:00:00Z","body":"hi"}\n')
        records = parse_bytes(row, "jsonl")
        assert len(records) == 1
        rec = records[0]
        assert rec.post_id == "p1"
        assert rec.created_at.tzinfo == timezone.utc
        assert rec.body == "hi"

    def test_duplicate_post_id(self):
        row = ('{"post_id":"p1","thread_id":"t1","user_id":"u1",'
               '"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        with pytest.raises(ParseError, match="p1"):
            parse_bytes((row + row).encode(), "jsonl")

    def test_malformed_row_reports_line(self):
        good = ('{"post_id":"p1","thread_id":"t1","user_id":"u1",'
                '"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        with pytest.raises(ParseError, match="line 2"):
            parse_bytes((good + "{oops\n").encode(), "jsonl")

    def test_naive_timestamp_rejected(self):
        row = ('{"post_id":"p1","thread_id":"t1","user_id":"u1",'
               '"created_at":"2000-04-21T00:00:00","body":"x"}\n')
        with pytest.raises(ParseError, match="naive"):
            parse_bytes(row.encode(), "jsonl")

    def test_carriage_return_in_user_id_rejected(self):
        row = ('{"post_id":"p1","thread_id":"t1","user_id":"u\\r1",'
               '"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        with pytest.raises(ParseError, match="carriage return in user_id at line 1"):
            parse_bytes(row.encode(), "jsonl")

    def test_user_id_longer_than_the_csv_field_limit_rejected(self, day_window):
        # graphs/edges.csv and the other artifact CSVs must read every user id back
        limit = csv.field_size_limit()
        longest = make_post("p1", "t1", "u" * limit)
        edges = graph.edges_csv([make_graph([], extra_nodes=[longest.user_id])])
        assert graph.graphs_from_csv(io.StringIO(edges, newline=""),
                                     [day_window])[0].nodes.keys() == {longest.user_id}
        data = ingest.serialize_posts([longest, make_post("p2", "t1", "u" * 140_000)])
        with pytest.raises(ParseError, match=f"^user_id at line 2 is longer than {limit} "
                                             "characters$"):
            parse_bytes(data, "jsonl")

    @pytest.mark.parametrize("field", ["user_id", "body"])
    def test_csv_field_longer_than_the_limit_names_the_line(self, field):
        long_post = replace(make_post("p2", "t1", "u2"), **{field: "y" * 140_000})
        data = serialize([make_post("p1", "t1", "u1"), long_post], "csv")
        with pytest.raises(ParseError, match="^malformed CSV at line 3: field larger than "
                                             "field limit"):
            parse_bytes(data, "csv")

    @pytest.mark.parametrize("field,value,shown", [
        ("user_id", "null", "null"), ("thread_id", '["a"]', '["a"]'),
        ("post_id", "true", "true"), ("body", '{"x": 1}', '{"x": 1}'),
        ("user_id", "1.5", "1.5"), ("thread_id", "1e3", "1000.0"),
        ("created_at", "NaN", "NaN"), ("body", "false", "false"),
    ])
    def test_non_string_field_rejected(self, field, value, shown):
        row = {"post_id": '"p1"', "thread_id": '"t1"', "user_id": '"u1"',
               "created_at": '"2000-04-21T00:00:00Z"', "body": '"x"', field: value}
        good = ('{"post_id":"p0","thread_id":"t1","user_id":"u1",'
                '"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        bad = "{" + ",".join(f'"{k}": {v}' for k, v in row.items()) + "}\n"
        expected = f"field '{field}' at line 2 .* got {re.escape(shown)}$"
        with pytest.raises(ParseError, match=expected):
            parse_bytes((good + bad).encode(), "jsonl")

    @pytest.mark.parametrize("edit,message", [
        (lambda row: row.pop("body"), r"missing field\(s\) \['body'\] at line 1$"),
        (lambda row: [row.pop("user_id"), row.update(extra=1)],
         r"missing field\(s\) \['user_id'\] at line 1$"),
        (lambda row: row.update(extra="x", more=[]), r"unknown field\(s\) \['extra', 'more'\] at line 1$"),
    ], ids=["missing", "missing and unknown", "unknown"])
    def test_missing_and_unknown_fields_rejected(self, edit, message):
        row = {"post_id": "p1", "thread_id": "t1", "user_id": "u1",
               "created_at": "2000-04-21T00:00:00Z", "body": "x"}
        edit(row)
        with pytest.raises(ParseError, match=message):
            parse_bytes((json.dumps(row) + "\n").encode(), "jsonl")

    def test_integer_ids_kept_as_decimal_text(self):
        row = (b'{"post_id":7,"thread_id":-3,"user_id":12345678901234567890,'
               b'"created_at":"2000-04-21T00:00:00Z","body":0}\n')
        rec, = parse_bytes(row, "jsonl")
        assert (rec.post_id, rec.thread_id, rec.user_id, rec.body) == (
            "7", "-3", "12345678901234567890", "0")

    def test_integer_too_long_to_convert_rejected(self):
        row = ('{"post_id":"p1","thread_id":"t1","user_id":' + "9" * 5000
               + ',"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        with pytest.raises(ParseError, match="malformed JSON at line 1"):
            parse_bytes(row.encode(), "jsonl")

    def test_nesting_too_deep_to_decode_names_the_line(self):
        data = ingest.serialize_posts([make_post("p1", "t1", "u1")]) + b"[" * 100_000
        with pytest.raises(ParseError, match="malformed JSON at line 2: maximum recursion"):
            parse_bytes(data, "jsonl")

    def test_csv_round_trips_newlines_in_body(self):
        rec = make_post("p1", "t1", "u1", body="line one\nline two")
        data = serialize([rec], "csv")
        assert parse_bytes(data, "csv") == [rec]

    def test_csv_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_bytes(b"a,b,c\n", "csv")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("field", ["user_id", "body"])
    def test_invalid_utf8_rejected_naming_line_and_field(self, fmt, field):
        good = make_post("p1", "t1", "u1", body="café")
        bad = serialize([replace(good, post_id="p2", **{field: "a\u00ffb"})], fmt)
        data = serialize([good], fmt) + bad.split(b"\r\n", 1)[-1].replace(
            "\u00ff".encode(), b"\xff")  # a byte that starts no UTF-8 sequence
        line = 2 if fmt == "jsonl" else 3
        with pytest.raises(ParseError, match=f"^field '{field}' at line {line} is not Unicode text"):
            parse_bytes(data, fmt)

    @pytest.mark.parametrize("field", ["user_id", "body"])
    @pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "x\\udc80y", "\\ude00\\ud83d"])
    def test_lone_surrogate_escape_rejected_naming_line_and_field(self, field, escape):
        row = {"post_id": "p1", "thread_id": "t1", "user_id": "u1",
               "created_at": "2000-04-21T00:00:00Z", "body": "x", field: escape}
        good = ('{"post_id":"p0","thread_id":"t1","user_id":"u1",'
                '"created_at":"2000-04-21T00:00:00Z","body":"x"}\n')
        bad = "{" + ",".join(f'"{k}": "{v}"' for k, v in row.items()) + "}\n"
        with pytest.raises(ParseError, match=f"field '{field}' at line 2 is not Unicode text: "
                                             "it holds a byte that is not UTF-8 or a lone "
                                             "surrogate escape$"):
            parse_bytes((good + bad).encode(), "jsonl")

    def test_valid_unicode_escapes_accepted(self):
        row = (b'{"post_id":"p1","thread_id":"t1","user_id":"caf\\u00e9",'
               b'"created_at":"2000-04-21T00:00:00Z","body":"\\ud83d\\ude00 \\\\ud800"}\n')
        rec, = parse_bytes(row, "jsonl")
        assert (rec.user_id, rec.body) == ("café", "\U0001F600 \\ud800")
        assert parse_bytes(ingest.serialize_posts([rec]), "jsonl") == [rec]

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
    def test_timestamp_outside_the_datetime_range_in_utc_rejected(self, stamp):
        row = ('{"post_id":"p1","thread_id":"t1","user_id":"u1",'
               f'"created_at":"{stamp}","body":"x"}}\n')
        with pytest.raises(ParseError, match=f"timestamp '{re.escape(stamp)}' at line 1 lies "
                                             "outside years 1-9999 in UTC"):
            parse_bytes(row.encode(), "jsonl")

    @pytest.mark.parametrize("data, fmt", [
        (b'{"post_id":"p1","thread_id":"t1","user_id":"u1",'
         b'"created_at":"2000-04-21T00:00:00Z","body":"hi"}\n', "jsonl"),
        (",".join(ingest.CSV_COLUMNS).encode() + b"\n", "csv"),
    ], ids=["jsonl", "header-only-csv"])
    def test_caller_stream_left_open(self, data, fmt):
        stream = io.BytesIO(data)
        ingest.parse_posts(stream, fmt)
        assert not stream.closed

    def test_caller_stream_left_open_after_a_malformed_line(self):
        stream = io.BytesIO(b"{not json\n")
        with pytest.raises(ParseError):  # no excinfo: it would keep the parser's frame alive
            ingest.parse_posts(stream, "jsonl")
        assert not stream.closed


class TestTimestamps:
    def test_years_before_1000_keep_four_digits(self):
        ts = datetime(999, 1, 1, tzinfo=timezone.utc)
        assert ingest.format_timestamp(ts) == "0999-01-01T00:00:00Z"
        assert ingest.parse_timestamp("0999-01-01T00:00:00Z") == ts

    def test_offset_converted_and_fraction_dropped(self):
        ts = ingest.parse_timestamp("2000-01-01T00:30:00.75+01:00")
        assert ts == datetime(1999, 12, 31, 23, 30, tzinfo=timezone.utc)
        assert ingest.format_timestamp(ts) == "1999-12-31T23:30:00Z"

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(timezones=st.just(timezone.utc)).map(lambda t: t.replace(microsecond=0)))
    def test_round_trip_over_the_whole_range(self, ts):
        assert ingest.parse_timestamp(ingest.format_timestamp(ts)) == ts

    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(min_value=datetime(1000, 1, 1), timezones=st.just(timezone.utc)))
    def test_same_text_as_strftime_from_year_1000(self, ts):
        assert ingest.format_timestamp(ts) == ts.strftime("%Y-%m-%dT%H:%M:%SZ")


_created_at = st.integers(min_value=0, max_value=10**9).map(
    lambda s: T0 + timedelta(seconds=s))
_record_strategy = st.builds(
    PostRecord,
    post_id=st.uuids().map(str),
    thread_id=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n\"\x00"),
                      min_size=1, max_size=8),
    user_id=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n\"\x00"),
                    min_size=1, max_size=8),
    created_at=_created_at,
    body=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                 max_size=40),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_record_strategy, max_size=8, unique_by=lambda r: r.post_id),
       st.sampled_from(["jsonl", "csv"]))
def test_serialize_parse_round_trip(records, fmt):
    data = serialize(records, fmt)
    assert parse_bytes(data, fmt) == records


def reference_serialize(records):
    """posts.jsonl as the json module's encoder writes it, one dict per row."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    return "".join(encoder.encode(dict(
        post_id=r.post_id, thread_id=r.thread_id, user_id=r.user_id,
        created_at=ingest.format_timestamp(r.created_at), body=r.body)) + "\n"
        for r in records).encode("utf-8")


# quotes, backslashes, control characters, DEL, the JSON-legal line separators
# U+2028/U+2029, non-BMP characters, and any other text
_awkward_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r", "\t", "\b", "\x7f", "\u2028",
                     "\u2029", "\U0001F600", "\U0010FFFF", "é", "/"]),
    st.characters(blacklist_categories=("Cs",))), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(PostRecord, post_id=_awkward_text, thread_id=_awkward_text,
                          user_id=_awkward_text, created_at=_created_at, body=_awkward_text),
                max_size=4))
def test_serialize_equals_the_json_encoder(records):
    assert ingest.serialize_posts(records) == reference_serialize(records)


class TestCorpusStats:
    def test_two_posts_one_thread_one_user(self):
        posts = [make_post("p1", "t1", "u1"), make_post("p2", "t1", "u1", minutes=5)]
        stats = ingest.corpus_stats(posts)
        assert stats.post_count == 2
        assert stats.user_count == 1
        assert stats.thread_count == 1
        assert stats.avg_thread_depth == 2.0
        assert stats.first_post == posts[0].created_at
        assert stats.last_post == posts[1].created_at

    def test_25_posts_one_thread(self):
        posts = [make_post(f"p{i}", "t1", f"u{i % 3}", minutes=i) for i in range(25)]
        assert ingest.corpus_stats(posts).avg_thread_depth == 25.0

    def test_six_posts_three_threads(self):
        posts = [make_post(f"p{i}", f"t{i % 3}", "u1", minutes=i) for i in range(6)]
        assert ingest.corpus_stats(posts).avg_thread_depth == 6 / 3

    def test_permutation_invariant(self):
        posts = [make_post(f"p{i}", f"t{i % 2}", f"u{i % 4}", minutes=i) for i in range(8)]
        assert ingest.corpus_stats(posts) == ingest.corpus_stats(list(reversed(posts)))


SMALL = SynthParams(n_users=60, n_threads=96, n_windows=4, window_days=24,
                    churn_signal_strength=1.0)


class TestSyntheticForum:
    def test_deterministic_for_fixed_seed(self):
        a = ingest.generate_synthetic_forum(3, SMALL)
        b = ingest.generate_synthetic_forum(3, SMALL)
        assert a == b
        assert ingest.serialize_posts(a) == ingest.serialize_posts(b)

    def test_different_seeds_differ(self):
        assert ingest.generate_synthetic_forum(3, SMALL) != ingest.generate_synthetic_forum(4, SMALL)

    @pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1])
    def test_invariants_hold_for_any_seed(self, seed):
        posts = ingest.generate_synthetic_forum(seed, SMALL)
        ids = [p.post_id for p in posts]
        assert len(ids) == len(set(ids))
        assert all(p.thread_id and p.user_id for p in posts)
        assert all(p.created_at.tzinfo is not None for p in posts)

    def test_window_span_matches_params(self):
        posts = ingest.generate_synthetic_forum(5, SMALL)
        stats = ingest.corpus_stats(posts)
        from forumflux.graph import build_windows
        assert len(build_windows(stats.first_post, stats.last_post, SMALL.window_days)) \
            == SMALL.n_windows

    @pytest.mark.parametrize("signal", [2.0, 1e308])
    def test_any_signal_from_one_up_plants_the_full_signal(self, signal):
        assert (ingest.generate_synthetic_forum(3, replace(SMALL, churn_signal_strength=signal))
                == ingest.generate_synthetic_forum(3, SMALL))

    def test_calendar_past_year_9999_rejected(self):
        # 12 windows of 240,000 days from 2020 end in 9905; of 250,000, after year 9999
        assert ingest.generate_synthetic_forum(1, replace(SMALL, n_windows=12,
                                                          window_days=240_000))
        with pytest.raises(ConfigError, match="'window_days' and 'synth_n_windows': 12 "
                                              "windows of 250000 days end after year 9999"):
            ingest.generate_synthetic_forum(1, replace(SMALL, n_windows=12, window_days=250_000))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            ingest.generate_synthetic_forum(1, SynthParams(n_windows=0))
        with pytest.raises(ConfigError):
            ingest.generate_synthetic_forum(1, SynthParams(churn_signal_strength=-0.5))


def test_no_signal_distributions_indistinguishable():
    # With the signal off, users about to rotate out must be statistically
    # indistinguishable from stayers in the recovered feature table.
    from scipy import stats as sps

    from forumflux import community, featureset, lexifeat
    posts = ingest.generate_synthetic_forum(11, SynthParams(churn_signal_strength=0.0))
    ctx = feature_context(posts, 24, lexifeat.default_lexicon(),
                          lexifeat.default_intent_patterns(), community.PropinquityConfig())
    from forumflux.evolution import Task, label_all
    _, y, X = featureset.build_dataset(label_all(ctx.communities), Task.LEAVE_VS_STAY, ctx)
    assert len(y) >= 1000
    for feature in ("cognition", "connectiveness"):
        column = X[:, featureset.FEATURE_NAMES.index(feature)]
        _, p_value = sps.ks_2samp(column[y == 1], column[y == 0])
        assert p_value > 0.01
