"""Tokenization and lexicon-based text measures.

A lexicon maps lowercase patterns (optionally '*'-terminated for prefix
matching) to affect/cognition categories. The bundled sample lexicon mimics
the category and wildcard semantics of dictionary-based word counting tools
but ships only open vocabulary; it is user-replaceable via the TSV format
pattern<TAB>category with '#' comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import ConfigError

SENTIMENT_CATEGORIES = frozenset({"posemo", "negemo", "anger", "sadness"})
COGNITION_CATEGORIES = frozenset({"cogmech"})
ALL_CATEGORIES = SENTIMENT_CATEGORIES | COGNITION_CATEGORIES

_URL_RE = re.compile(r"https?\S*")
_TOKEN_RE = re.compile(r"(?<!')'*[^\W\d_]+(?:'+[^\W\d_]*)*")  # (?<!'): linear on ' runs


def tokenize(body):
    """Lowercased maximal runs of letters and apostrophes.

    Digits, punctuation, and URLs (http/https through the next whitespace)
    are dropped; all-apostrophe runs do not count as tokens.
    """
    return _TOKEN_RE.findall(_URL_RE.sub(" ", body.lower()))


@dataclass(frozen=True)
class Lexicon:
    entries: tuple  # of (pattern, category)
    _exact: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _prefixes: tuple = field(init=False, default=(), repr=False, compare=False)
    # token -> (matches a sentiment category, matches a cognition category)
    _hits: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        exact = {}
        prefixes = []
        for pattern, category in self.entries:
            if not pattern or pattern == "*":
                raise ConfigError(f"empty lexicon pattern (category {category})")
            if "*" in pattern[:-1]:
                raise ConfigError(f"'*' only allowed as final character: {pattern!r}")
            if category not in ALL_CATEGORIES:
                raise ConfigError(f"unknown lexicon category {category!r}")
            if pattern.endswith("*"):
                prefixes.append((pattern[:-1], category))
            else:
                exact.setdefault(pattern, set()).add(category)
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_prefixes", tuple(prefixes))

    def categories_for(self, token):
        """Categories a token matches; exact entries shadow prefix entries."""
        return frozenset(self._exact[token] if token in self._exact else
                         (cat for stem, cat in self._prefixes if token.startswith(stem)))


@dataclass(frozen=True)
class IntentPatterns:
    phrases: tuple  # of tuples of lowercase tokens, each length >= 2
    _by_first: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for phrase in self.phrases:
            if len(phrase) < 2 or not all(phrase):
                raise ConfigError(f"intent phrase must have >= 2 non-empty tokens: {phrase!r}")
        # first token -> phrases starting with it, longest first
        for phrase in sorted(self.phrases, key=len, reverse=True):
            self._by_first.setdefault(phrase[0], []).append(phrase)


def load_lexicon(lines):
    """Parse TSV lexicon lines (pattern<TAB>category, '#' comments), a list or a file."""
    entries = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"bad lexicon line {line_no}: {stripped!r}")
        entries.append((parts[0].lower(), parts[1].lower()))
    return Lexicon(entries=tuple(entries))


def load_intent_patterns(lines):
    """Parse intent phrase lines, one lowercase phrase per line, a list or a file."""
    phrases = []
    for line in lines:
        stripped = line.strip().lower()
        if not stripped or stripped.startswith("#"):
            continue
        phrases.append(tuple(stripped.split()))
    return IntentPatterns(phrases=tuple(phrases))


def default_lexicon():
    text = resources.files("forumflux.data").joinpath("sample_lexicon.tsv").read_text("utf-8")
    return load_lexicon(text.splitlines())


def default_intent_patterns():
    text = resources.files("forumflux.data").joinpath("intent_phrases.txt").read_text("utf-8")
    return load_intent_patterns(text.splitlines())


def count_intents(tokens, patterns):
    """Non-overlapping left-to-right phrase matches, longest phrase first."""
    count = 0
    i = 0
    n = len(tokens)
    while i < n:
        for phrase in patterns._by_first.get(tokens[i], ()):
            k = len(phrase)
            if tuple(tokens[i:i + k]) == phrase:
                count += 1
                i += k
                break
        else:
            i += 1
    return count


@dataclass(frozen=True)
class TextMeasures:
    sentiment: int
    cognition: int
    intent: int


def text_measures(body, lexicon, patterns):
    """Sentiment/cognition/intent counts for one post body; a token counts once per group."""
    tokens = tokenize(body)
    hits = lexicon._hits
    sentiment = cognition = 0
    for tok in tokens:
        hit = hits.get(tok)
        if hit is None:
            cats = lexicon.categories_for(tok)
            hit = hits[tok] = (bool(cats & SENTIMENT_CATEGORIES),
                               bool(cats & COGNITION_CATEGORIES))
        sentiment += hit[0]
        cognition += hit[1]
    intent = 0 if patterns._by_first.keys().isdisjoint(tokens) else count_intents(tokens, patterns)
    return TextMeasures(sentiment=sentiment, cognition=cognition, intent=intent)
