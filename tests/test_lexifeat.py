import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumflux.errors import ConfigError
from forumflux.lexifeat import (ALL_CATEGORIES, COGNITION_CATEGORIES, SENTIMENT_CATEGORIES,
                                IntentPatterns, Lexicon, TextMeasures, count_intents,
                                default_intent_patterns, default_lexicon,
                                load_intent_patterns, load_lexicon, text_measures,
                                tokenize)


def count_category(tokens, lexicon, categories):
    """Tokens matching any listed category; each token counts at most once."""
    return sum(1 for tok in tokens if lexicon.categories_for(tok) & categories)


def reference_tokenize(body):
    """Maximal runs of letters and apostrophes, then all-apostrophe runs filtered out."""
    text = re.sub(r"https?\S*", " ", body.lower())
    return [t for t in re.findall(r"(?:[^\W\d_]|')+", text) if t.strip("'")]


def reference_text_measures(body, lexicon, patterns):
    """One count_category pass per category group, then the intent scan."""
    tokens = reference_tokenize(body)
    return TextMeasures(sentiment=count_category(tokens, lexicon, SENTIMENT_CATEGORIES),
                        cognition=count_category(tokens, lexicon, COGNITION_CATEGORIES),
                        intent=count_intents(tokens, patterns))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophes_kept(self):
        assert tokenize("I can't wait!") == ["i", "can't", "wait"]

    def test_urls_dropped(self):
        assert tokenize("see http://x.y NOW") == ["see", "now"]
        assert tokenize("https://a.b/c?d=1 tail") == ["tail"]

    def test_digits_and_punctuation_dropped(self):
        assert tokenize("room 101, floor-2; yes.") == ["room", "floor", "yes"]

    def test_bare_apostrophes_are_not_tokens(self):
        assert tokenize("'' ' x") == ["x"]

    def test_unicode_letters(self):
        assert tokenize("café naïve") == ["café", "naïve"]

    def test_edge_apostrophes_kept_with_the_word(self):
        assert tokenize("'tis o' ''x'' 1'a _b'") == ["'tis", "o'", "''x''", "'a", "b'"]

    def test_long_apostrophe_run_takes_linear_time(self):
        word = "'a" * 50_000 + "'" * 50_000
        started = time.perf_counter()
        assert tokenize("'" * 50_000 + " x " + word) == ["x", word]
        # milliseconds; a scan that retries the run from each of its apostrophes takes about a minute
        assert time.perf_counter() - started < 2.0


SMALL_LEX = Lexicon(entries=(
    ("happy", "posemo"),
    ("sad", "sadness"),
    ("think*", "cogmech"),
))


class TestCountCategory:
    def test_direct_lookup(self):
        assert count_category(["happy", "sad"], SMALL_LEX, SENTIMENT_CATEGORIES) == 2

    def test_prefix_rule(self):
        assert count_category(["thinking"], SMALL_LEX, {"cogmech"}) == 1

    def test_token_instances_count_separately(self):
        assert count_category(["happy", "happy", "stone"], SMALL_LEX,
                              SENTIMENT_CATEGORIES) == 2

    def test_exact_shadows_prefix(self):
        lex = Lexicon(entries=(("think*", "cogmech"), ("thinker", "posemo")))
        # exact entry wins: "thinker" is posemo only
        assert count_category(["thinker"], lex, {"cogmech"}) == 0
        assert count_category(["thinker"], lex, {"posemo"}) == 1

    def test_token_counts_once_across_categories(self):
        lex = Lexicon(entries=(("cross", "posemo"), ("cross", "anger")))
        assert count_category(["cross"], lex, ALL_CATEGORIES) == 1

    def test_all_categories_bounded_by_token_count(self):
        tokens = tokenize("happy sad thinking happy")
        assert count_category(tokens, SMALL_LEX, ALL_CATEGORIES) <= len(tokens)


class TestCountIntents:
    PATTERNS = IntentPatterns(phrases=(("i", "am", "going", "to"), ("i", "will")))

    def test_single_match(self):
        assert count_intents(tokenize("i am going to apply"), self.PATTERNS) == 1

    def test_non_overlapping_scan(self):
        assert count_intents(tokenize("i will go i will stay"), self.PATTERNS) == 2

    def test_empty_tokens(self):
        assert count_intents([], self.PATTERNS) == 0

    def test_longest_phrase_preferred(self):
        patterns = IntentPatterns(phrases=(("i", "am"), ("i", "am", "going", "to")))
        # single match of the 4-token phrase, not "i am" + leftovers
        assert count_intents(tokenize("i am going to"), patterns) == 1


class TestLexiconLoading:
    def test_tsv_with_comments(self):
        lex = load_lexicon(["# comment", "", "glad\tposemo", "wonder*\tcogmech"])
        assert ("glad", "posemo") in lex.entries
        assert count_category(["wondering"], lex, {"cogmech"}) == 1

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            load_lexicon(["glad posemo"])

    def test_star_only_final(self):
        with pytest.raises(ConfigError):
            Lexicon(entries=(("gl*ad", "posemo"),))

    def test_unknown_category(self):
        with pytest.raises(ConfigError):
            Lexicon(entries=(("glad", "mystery"),))

    def test_short_intent_phrase_rejected(self):
        with pytest.raises(ConfigError):
            load_intent_patterns(["single"])

    def test_bundled_defaults_load(self):
        lex = default_lexicon()
        assert len(lex.entries) >= 200
        assert {cat for _, cat in lex.entries} == ALL_CATEGORIES
        patterns = default_intent_patterns()
        assert all(len(p) >= 2 for p in patterns.phrases)


def test_counts_additive_over_concatenation():
    a = "i am happy thinking stone"
    b = "sad wall i will go"
    patterns = IntentPatterns(phrases=(("i", "will"),))
    for field in ("sentiment", "cognition", "intent"):
        whole = getattr(text_measures(a + " " + b, SMALL_LEX, patterns), field)
        parts = (getattr(text_measures(a, SMALL_LEX, patterns), field)
                 + getattr(text_measures(b, SMALL_LEX, patterns), field))
        assert whole == parts


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abct hinksadpy'", max_size=60),
       st.integers(min_value=0, max_value=2))
def test_removing_entry_never_increases_counts(body, drop_index):
    entries = list(SMALL_LEX.entries)
    reduced = Lexicon(entries=tuple(e for i, e in enumerate(entries) if i != drop_index))
    tokens = tokenize(body)
    assert (count_category(tokens, reduced, ALL_CATEGORIES)
            <= count_category(tokens, SMALL_LEX, ALL_CATEGORIES))


def intents_reference(tokens, patterns):
    """Longest-first scan over every phrase at every position, no index."""
    by_length = sorted(patterns.phrases, key=len, reverse=True)
    count = i = 0
    while i < len(tokens):
        for phrase in by_length:
            if tuple(tokens[i:i + len(phrase)]) == phrase:
                count += 1
                i += len(phrase)
                break
        else:
            i += 1
    return count


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["i", "am", "going", "to", "will", "we", "go"]), max_size=30))
def test_count_intents_matches_reference(tokens):
    patterns = IntentPatterns(phrases=(("i", "am"), ("we", "will"), ("i", "am", "going", "to"),
                                       ("i", "will"), ("am", "going"), ("to", "go", "to")))
    assert count_intents(tokens, patterns) == intents_reference(tokens, patterns)


def test_categories_for_is_stable_under_repeated_lookup():
    lex = default_lexicon()
    tokens = tokenize("happy happily thinking think stone wonder wondering sad sadness") * 2
    exact = {}
    for pattern, category in lex.entries:
        if not pattern.endswith("*"):
            exact.setdefault(pattern, set()).add(category)
    for tok in tokens:
        expected = exact.get(tok) or {cat for pat, cat in lex.entries
                                      if pat.endswith("*") and tok.startswith(pat[:-1])}
        assert lex.categories_for(tok) == expected
    assert lex == default_lexicon()


# a lexicon where one token sits in both groups and prefixes overlap exact entries
MIXED_LEX = Lexicon(entries=(
    ("happy", "posemo"), ("sad", "sadness"), ("think*", "cogmech"), ("thinker", "posemo"),
    ("cross", "anger"), ("cross", "cogmech"), ("know", "cogmech"), ("don't", "negemo"),
    ("caf*", "posemo"), ("naïve", "cogmech"), ("i", "posemo"),
))
DEFAULT_LEX = default_lexicon()
PATTERNS = IntentPatterns(phrases=default_intent_patterns().phrases + (("to", "go", "to"),))
_words = ["happy", "sad", "thinking", "thinker", "cross", "know", "don't", "'tis", "o'", "'",
          "''", "café", "naïve", "Straße", "İstanbul", "ǅemal", "i", "will", "am", "going", "to",
          "go", "i will", "I am going to", "we will", "to go to", "http://x.y/happy",
          "https://a", "httpsad", "4u", "x1y", "a_b", "_", "9"]
_bodies = st.lists(st.one_of(st.sampled_from(_words),
                             st.text(alphabet="ab'_1 éİ.", max_size=6)),
                   max_size=25).flatmap(
    lambda parts: st.lists(st.sampled_from([" ", "", "'", ",", "\n", "-"]),
                           min_size=len(parts), max_size=len(parts)).map(
        lambda seps: "".join(p + s for p, s in zip(parts, seps))))


@settings(max_examples=300, deadline=None)
@given(_bodies)
def test_tokenize_matches_the_filter_reference(body):
    assert tokenize(body) == reference_tokenize(body)


@settings(max_examples=300, deadline=None)
@given(_bodies, st.sampled_from(["mixed", "default"]), st.booleans())
def test_text_measures_match_the_two_pass_reference(body, which, fresh):
    lexicon = {"mixed": MIXED_LEX, "default": DEFAULT_LEX}[which]
    if fresh:  # an empty memo as well as one filled by earlier examples
        lexicon = Lexicon(entries=lexicon.entries)
    assert (text_measures(body, lexicon, PATTERNS)
            == reference_text_measures(body, lexicon, PATTERNS))

