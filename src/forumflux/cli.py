"""Pipeline orchestration: config file, stage commands, artifact files.

`load_config` parses the config file once into a frozen, typed `Config` and
checks every value there, ranges included, and loads the word lists it names,
so a bad config exits 1 before any stage writes, whatever the command. Each
stage is `stage_x(cfg, out_dir)`, out_dir a Path: it reads plain CSV/JSON
artifacts from the output directory and writes its own, so the pipeline can
be resumed or inspected at any point. Every file, the config and the input
included, is read through `_read`, whose errors name the file. Window graphs
are built once, by `snapshots`, and read back from graphs/edges.csv; the
window calendar is read from corpus_stats.json. `run` executes all stages in
order and hands the posts `ingest` parsed to `snapshots` and `features`, which
read posts.jsonl only when run alone; identical config + inputs produce a
byte-identical artifact tree. Each stage imports the modules it calls; those
imported at the top load without numpy, so `ingest`, `snapshots`, `roles`,
`report`, `--help` and a config error run without it.

Exit codes: 0 success, 1 usage/config, 2 data error, 3 modeling error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import community as community_mod
from . import evolution, graph as graph_mod, ingest, lexifeat, report as report_mod
from .errors import ConfigError, ForumFluxError, ParseError, TrainingError

_FORMATS = ("jsonl", "csv")
_WORD_LISTS = {"lexicon": lexifeat.load_lexicon, "intents": lexifeat.load_intent_patterns}
_BALANCE = {"1": True, "true": True, "yes": True, "downsample": True,
            "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class Hyper:
    """The settings of one logistic-regression fit, `model.train`'s hyper."""
    epochs: int = 500        # the most Newton steps a fit may take
    l2_lambda: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.l2_lambda <= 0:
            raise ConfigError("l2_lambda must be positive")


@dataclass(frozen=True)
class Config:
    """Every setting of a pipeline run, typed; `load_config` builds it."""
    input: str = ""
    format: str = "jsonl"
    # the bundled word lists are read when a Config is made, not at import
    lexicon: lexifeat.Lexicon = field(default_factory=lexifeat.default_lexicon)
    intents: lexifeat.IntentPatterns = field(default_factory=lexifeat.default_intent_patterns)
    task: evolution.Task = evolution.Task.LEAVE_VS_STAY
    repeats: int = 20
    train_fraction: float = 0.7
    seed: int = 0
    balance: bool = False
    out: str = "out"
    propinquity: community_mod.PropinquityConfig = community_mod.PropinquityConfig()
    hyper: Hyper = Hyper()
    synth: ingest.SynthParams = ingest.SynthParams()

    def __post_init__(self):
        for key, ok, rule in (("format", self.format in _FORMATS, "jsonl or csv"),
                              ("repeats", self.repeats >= 1, ">= 1"),
                              ("train_fraction", 0 < self.train_fraction < 1, "in (0, 1)"),
                              ("seed", self.seed >= 0, "non-negative")):
            if not ok:
                raise ConfigError(f"config key {key!r} must be {rule}, "
                                  f"got {getattr(self, key)!r}")

    @property
    def window_days(self):
        """Width of the window calendar, in days; the generator uses the same width."""
        return self.synth.window_days


_DEFAULTS = {f.name: f.default for f in fields(Config)}  # MISSING for the word lists

# config file key -> its Config field, a dotted name for a field of a nested setting
_KEYS = {
    "input": "input", "format": "format", "lexicon": "lexicon", "intents": "intents",
    "task": "task", "repeats": "repeats", "train_fraction": "train_fraction", "seed": "seed",
    "balance": "balance", "out": "out", "alpha": "propinquity.alpha", "beta": "propinquity.beta",
    "max_iterations": "propinquity.max_iterations",
    "min_community_size": "propinquity.min_community_size",
    "epochs": "hyper.epochs", "l2_lambda": "hyper.l2_lambda",
    "window_days": "synth.window_days", "synth_n_users": "synth.n_users",
    "synth_n_threads": "synth.n_threads", "synth_n_windows": "synth.n_windows",
    "synth_signal": "synth.churn_signal_strength",
}


def load_config(path, *, overrides=()):
    """The Config of a flat key = value file; '#' starts a comment.

    path None means all defaults. overrides are (key, text) pairs applied
    after the file, parsed like its lines. Unknown keys are rejected, each
    value is parsed as the type of its key's default, and the range checks of
    Config, PropinquityConfig, Hyper and SynthParams run here: every problem
    is a ConfigError naming the key, raised before any stage runs. The
    lexicon and intents keys name files, loaded here into word lists.
    """
    pairs = [] if path is None else _read(path, None, _config_pairs, error=ConfigError)
    given = defaultdict(dict)   # nested setting ("" for Config itself) -> field -> value
    for key, text in [*pairs, *overrides]:
        group, _, name = _KEYS[key].rpartition(".")
        default = getattr(_DEFAULTS[group], name) if group else _DEFAULTS[name]
        given[group][name] = _parse(key, default, text)
    top = given.pop("", {})
    for group, values in given.items():
        try:
            top[group] = replace(_DEFAULTS[group], **values)
        except ConfigError as exc:
            keys = [k for k, f in _KEYS.items() if f.startswith(group + ".")]
            named = [k for k in keys if re.search(rf"\b{_KEYS[k].partition('.')[2]}\b", str(exc))]
            raise ConfigError(f"config key {' and '.join(map(repr, named or keys))}: "
                              f"{exc}") from None
    return Config(**top)


def _config_pairs(fh):
    """(key, value) pairs of the lines of a config file."""
    pairs = []
    for line_no, line in enumerate(fh.read().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"bad config line {line_no}: {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r} at line {line_no}")
        pairs.append((key, value))
    return pairs


def _parse(key, default, text):
    """text as the type of default: bool and Task by spelling, numbers finite
    (an int too large for a float counts as not finite), word lists loaded."""
    if key in _WORD_LISTS:  # the name of a word list file
        try:
            return _read(text, None, _WORD_LISTS[key], error=ConfigError)
        except ConfigError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    if isinstance(default, (bool, evolution.Task)):
        choices = _BALANCE if isinstance(default, bool) else {t.value: t for t in evolution.Task}
        for spelling, value in choices.items():
            if spelling.lower() == text.lower():
                return value
        raise ConfigError(f"config key {key!r} must be one of {', '.join(choices)}, "
                          f"got {text!r}")
    if isinstance(default, str):
        return text
    try:
        value = type(default)(text)
        finite = math.isfinite(value)  # OverflowError: an int beyond the float range
    except (ValueError, OverflowError):
        finite = False
    if not finite:
        noun = ("an integer of at most 308 digits" if isinstance(default, int)
                else "a finite number")
        raise ConfigError(f"config key {key!r} must be {noun}, got {text!r}")
    return value


def _read(path, producer, parse, *args, error=ParseError):
    """parse(file, *args) over the file at path, as bytes for ingest.parse_posts and as
    UTF-8 text, a leading byte order mark dropped, otherwise. A missing file names
    producer, the stage that writes it, if any; every other failure to open, decode or
    parse it raises error naming the file (a ForumFluxError keeps its type)."""
    try:
        fh = (open(path, "rb") if parse is ingest.parse_posts
              else open(path, newline="", encoding="utf-8-sig"))
    except OSError as exc:  # missing, a directory, or unreadable
        if producer and isinstance(exc, FileNotFoundError):
            raise ParseError(f"missing artifact {path}; run '{producer}' first")
        raise error(f"cannot read {path}: {exc}") from None
    with fh:
        try:
            return parse(fh, *args)
        except ForumFluxError as exc:
            raise type(exc)(f"malformed {path}: {exc}") from None
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError
        except (csv.Error, ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise error(f"malformed {path}: {exc}") from None


def _write(path, data):
    """Write data, bytes or text, to path; a dict becomes JSON with sorted keys. A path
    that cannot be written is a ConfigError naming it: the output directory is a setting."""
    if isinstance(data, dict):
        data = json.dumps(data, indent=2, sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_synth(cfg, out_dir):
    posts = ingest.generate_synthetic_forum(cfg.seed, cfg.synth)
    _write(out_dir / "posts.jsonl", ingest.serialize_posts(posts))


def stage_ingest(cfg, out_dir):
    path = cfg.input or out_dir / "posts.jsonl"
    posts = _read(path, None if cfg.input else "synth", ingest.parse_posts,
                  cfg.format if cfg.input else "jsonl")
    if not posts:
        raise ParseError(f"{path} holds no posts")
    stats = ingest.corpus_stats(posts)
    _write(out_dir / "posts.jsonl", ingest.serialize_posts(posts))
    _write(out_dir / "corpus_stats.json", {
        **asdict(stats), "first_post": ingest.format_timestamp(stats.first_post),
        "last_post": ingest.format_timestamp(stats.last_post)})
    return posts


def _post_span(fh):
    """(first_post, last_post) of a corpus_stats.json file."""
    stats = json.load(fh)
    first, last = (ingest.parse_timestamp(stats[k]) for k in ("first_post", "last_post"))
    if first > last:
        raise ParseError("first_post must not be after last_post")
    return first, last


def _windows(cfg, out_dir):
    """The window calendar, from the first and last post in corpus_stats.json."""
    return graph_mod.build_windows(
        *_read(out_dir / "corpus_stats.json", "ingest", _post_span), cfg.window_days)


def stage_snapshots(cfg, out_dir, posts=None):
    graphs = graph_mod.window_graphs(  # posts read here are freed before edges_csv runs
        posts or _read(out_dir / "posts.jsonl", "ingest", ingest.parse_posts, "jsonl"),
        _windows(cfg, out_dir))
    _write(out_dir / "graphs" / "edges.csv", graph_mod.edges_csv(graphs))


def _read_graphs(cfg, out_dir):
    """(windows, one graph per window) from graphs/edges.csv. The last window holds the last
    post, so a last graph with no node is a ParseError: another window calendar built it."""
    windows = _windows(cfg, out_dir)
    path = out_dir / "graphs" / "edges.csv"
    graphs = _read(path, "snapshots", graph_mod.graphs_from_csv, windows)
    if not graphs[-1].nodes:
        raise ParseError(f"{path} has no row for the last of the {len(windows)} windows: it was "
                         "built on another window calendar; rerun 'snapshots'")
    return windows, graphs


def stage_communities(cfg, out_dir):
    communities = []
    for g in _read_graphs(cfg, out_dir)[1]:
        communities.extend(community_mod.detect_communities(g, cfg.propinquity))
    _write(out_dir / "communities.csv", community_mod.communities_csv(communities))


def stage_roles(cfg, out_dir):
    labels = evolution.label_all(_read(out_dir / "communities.csv", "communities",
                                       community_mod.communities_from_csv))
    _write(out_dir / "roles.csv", evolution.roles_csv(labels))


def stage_features(cfg, out_dir, posts=None):
    from . import featureset
    roles = out_dir / "roles.csv"
    labels = _read(roles, "roles", evolution.roles_from_csv)
    ctx = featureset.FeatureContext(
        posts or _read(out_dir / "posts.jsonl", "ingest", ingest.parse_posts, "jsonl"),
        *(windows_graphs := _read_graphs(cfg, out_dir)),  # no local holds read posts
        _read(out_dir / "communities.csv", "communities", community_mod.communities_from_csv,
              {g.snapshot_index: g.nodes for g in windows_graphs[1]}),  # as modularity needs
        cfg.lexicon, cfg.intents)
    try:
        dataset = featureset.build_dataset(labels, cfg.task, ctx)
    except ParseError as exc:  # a role row for a user who did not post in its window
        raise ParseError(f"malformed {roles}: {exc}") from None
    _write(out_dir / "dataset.csv", featureset.dataset_csv(cfg.task, *dataset))


def stage_train(cfg, out_dir):
    from . import featureset, model
    X, y = _read(out_dir / "dataset.csv", "features", featureset.dataset_from_csv)
    presets = model.table2_presets()
    reports = model.monte_carlo_cv(X, y, presets, cfg.hyper, repeats=cfg.repeats,
                                   train_fraction=cfg.train_fraction, seed=cfg.seed,
                                   balance=cfg.balance)
    for preset, report in zip(presets, reports):
        _write(out_dir / "reports" / f"{preset.key}.json", report)


def stage_report(cfg, out_dir):
    reports = [_read(out_dir / "reports" / f"{key}.json", "train", report_mod.report_from_json)
               for key, _, _ in report_mod.PRESETS]
    _write(out_dir / "report_table.txt", report_mod.report_table(reports))


_STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "snapshots": stage_snapshots,
    "communities": stage_communities,
    "roles": stage_roles,
    "features": stage_features,
    "train": stage_train,
    "report": stage_report,
}

_RUN_ORDER = ["ingest", "snapshots", "communities", "roles", "features", "train", "report"]


def run_pipeline(cfg, out_dir, quiet=False):
    """Execute all stages in order against one output directory, handing the posts
    `ingest` returns to `snapshots` and `features`; `train` runs without them."""
    from . import featureset, model  # noqa: F401  numpy first: after the posts, peak RSS grows
    posts = None
    for name in _RUN_ORDER:
        if not quiet:
            print(f"[{name}] running", file=sys.stderr)
        handed = (posts,) if name in ("snapshots", "features") else ()
        try:
            result = _STAGES[name](cfg, out_dir, *handed)
        except ForumFluxError as exc:
            raise type(exc)(f"stage {name}: {exc}") from exc
        if name in ("ingest", "features"):
            posts = result if name == "ingest" else None  # train runs without the posts


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="forumflux",
        description="Forum community churn pipeline: snapshots, communities, "
                    "roles, features, and churn models.",
    )
    parser.add_argument("command", choices=["run", *_STAGES],
                        help="'run' runs ingest through report in order; a stage name "
                             "runs that stage alone")
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", metavar="N", help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        seed = () if args.seed is None else [("seed", args.seed)]
        cfg = load_config(args.config, overrides=seed)
        out_dir = Path(args.out or cfg.out)
        if args.command == "run":
            run_pipeline(cfg, out_dir, quiet=args.quiet)
        else:
            _STAGES[args.command](cfg, out_dir)
    except ForumFluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, TrainingError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
