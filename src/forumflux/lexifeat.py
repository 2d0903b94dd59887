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
_TOKEN_RE = re.compile(r"(?:[^\W\d_]|')+")


def tokenize(body):
    """Lowercased maximal runs of letters and apostrophes.

    Digits, punctuation, and URLs (http/https through the next whitespace)
    are dropped; all-apostrophe runs do not count as tokens.
    """
    text = _URL_RE.sub(" ", body.lower())
    return [t for t in _TOKEN_RE.findall(text) if t.strip("'")]


@dataclass(frozen=True)
class Lexicon:
    entries: tuple  # of (pattern, category)
    _exact: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _prefixes: tuple = field(init=False, default=(), repr=False, compare=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

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
        cats = self._memo.get(token)
        if cats is None:
            cats = frozenset(self._exact[token] if token in self._exact else
                             (cat for stem, cat in self._prefixes if token.startswith(stem)))
            self._memo[token] = cats
        return cats


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
    """Parse TSV lexicon lines (pattern<TAB>category, '#' comments)."""
    entries = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"bad lexicon line {line_no}: {line!r}")
        entries.append((parts[0].lower(), parts[1].lower()))
    return Lexicon(entries=tuple(entries))


def load_intent_patterns(lines):
    """Parse intent phrase lines, one lowercase phrase per line."""
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


def count_category(tokens, lexicon, categories):
    """Tokens matching any listed category; each token counts at most once."""
    return sum(1 for tok in tokens if lexicon.categories_for(tok) & categories)


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
    """Sentiment/cognition/intent counts for one post body."""
    tokens = tokenize(body)
    return TextMeasures(
        sentiment=count_category(tokens, lexicon, SENTIMENT_CATEGORIES),
        cognition=count_category(tokens, lexicon, COGNITION_CATEGORIES),
        intent=count_intents(tokens, patterns),
    )
