"""Pipeline orchestration: config file, stage subcommands, artifact files.

Every stage reads plain CSV/JSON artifacts from the output directory and
writes its own, so the pipeline can be resumed or inspected at any point.
Window graphs are built once, by `snapshots`, and read back from
graphs/edges.csv; the window calendar is read from corpus_stats.json.
`run` executes all stages in order; identical config + inputs produce a
byte-identical artifact tree.

Exit codes: 0 success, 1 usage/config, 2 data error, 3 modeling error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import community as community_mod
from . import evolution, featureset, graph as graph_mod, ingest, lexifeat, model
from .errors import (ConfigError, DegenerateDatasetError, ForumFluxError,
                     MissingArtifactError, ParseError, TrainingError)

_DEFAULTS = {
    "input": "",
    "format": "jsonl",
    "window_days": "24",
    "alpha": "1",
    "beta": "3",
    "max_iterations": "20",
    "min_community_size": "3",
    "lexicon": "",
    "intents": "",
    "task": "LeaveVsStay",
    "learning_rate": "0.1",
    "epochs": "500",
    "l2_lambda": "0.01",
    "repeats": "20",
    "train_fraction": "0.7",
    "seed": "0",
    "balance": "false",
    "out": "out",
    "synth_n_users": "240",
    "synth_n_threads": "384",
    "synth_n_windows": "12",
    "synth_signal": "1.0",
    "synth_format": "jsonl",
}

_BALANCE = {"1": True, "true": True, "yes": True, "downsample": True,
            "0": False, "false": False, "no": False}


def load_config(path):
    """Flat key=value config file; '#' starts a comment; unknown keys rejected.

    Every value is checked here, ranges included, so a bad config exits before
    any stage writes. The result also holds the typed "propinquity" and
    "hyper" settings, built once.
    """
    cfg = dict(_DEFAULTS)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        for line_no, line in enumerate(p.read_text("utf-8").splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"bad config line {line_no}: {line!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r} at line {line_no}")
            cfg[key] = value.strip()
    for key, value in cfg.items():
        _check_value(key, value)
    if int(cfg["repeats"]) < 1:
        raise ConfigError(f"config key 'repeats' must be >= 1, got {cfg['repeats']}")
    if not 0 < float(cfg["train_fraction"]) < 1:
        raise ConfigError(f"config key 'train_fraction' must lie in (0, 1), "
                          f"got {cfg['train_fraction']}")
    cfg["propinquity"] = community_mod.PropinquityConfig(
        alpha=int(cfg["alpha"]),
        beta=int(cfg["beta"]),
        max_iterations=int(cfg["max_iterations"]),
        min_community_size=int(cfg["min_community_size"]),
    )
    cfg["hyper"] = model.Hyper(
        learning_rate=float(cfg["learning_rate"]),
        epochs=int(cfg["epochs"]),
        l2_lambda=float(cfg["l2_lambda"]),
    )
    return cfg


def _check_value(key, value):
    """ConfigError unless a numeric key parses, finite, as the type of its default,
    seed is non-negative and balance is a known spelling."""
    default = _DEFAULTS[key]
    kind = int if default.isdigit() else float if default.replace(".", "", 1).isdigit() else None
    try:
        ok = kind is None or math.isfinite(kind(value))
    except ValueError:
        ok = False
    if not ok:
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config key {key!r} must be {noun}, got {value!r}")
    if key == "seed" and int(value) < 0:
        raise ConfigError(f"config key 'seed' must be non-negative, got {value}")
    if key == "balance" and value.lower() not in _BALANCE:
        raise ConfigError(f"config key 'balance' must be one of {', '.join(_BALANCE)}, "
                          f"got {value!r}")


def _task(cfg):
    for task in evolution.Task:
        if task.value.lower() == cfg["task"].lower():
            return task
    raise ConfigError(f"unknown task {cfg['task']!r}, expected JoinVsPrevious or LeaveVsStay")


def _lexicon(cfg):
    if cfg["lexicon"]:
        path = Path(cfg["lexicon"])
        if not path.exists():
            raise MissingArtifactError(f"lexicon file not found: {path}")
        return lexifeat.load_lexicon(path.read_text("utf-8").splitlines())
    return lexifeat.default_lexicon()


def _intents(cfg):
    if cfg["intents"]:
        path = Path(cfg["intents"])
        if not path.exists():
            raise MissingArtifactError(f"intent phrase file not found: {path}")
        return lexifeat.load_intent_patterns(path.read_text("utf-8").splitlines())
    return lexifeat.default_intent_patterns()


def _require(path, producer):
    if not Path(path).exists():
        raise MissingArtifactError(f"missing artifact {path}; run '{producer}' first")


def _canonical_posts_path(out_dir):
    return Path(out_dir) / "posts.jsonl"


def _load_posts(out_dir):
    path = _canonical_posts_path(out_dir)
    _require(path, "ingest")
    with open(path, "rb") as fh:
        return ingest.parse_posts(fh, "jsonl")


def _write(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_synth(cfg, out_dir, seed):
    params = ingest.SynthParams(
        n_users=int(cfg["synth_n_users"]),
        n_threads=int(cfg["synth_n_threads"]),
        n_windows=int(cfg["synth_n_windows"]),
        window_days=int(cfg["window_days"]),
        churn_signal_strength=float(cfg["synth_signal"]),
    )
    posts = ingest.generate_synthetic_forum(seed, params)
    fmt = cfg["synth_format"]
    suffix = "jsonl" if fmt == "jsonl" else "csv"
    _write(Path(out_dir) / f"posts.{suffix}", ingest.serialize_posts(posts, fmt))


def stage_ingest(cfg, out_dir, seed):
    del seed
    if cfg["input"]:
        path = Path(cfg["input"])
        fmt = cfg["format"]
    else:
        path = _canonical_posts_path(out_dir)
        fmt = "jsonl"
        if not path.exists() and (Path(out_dir) / "posts.csv").exists():
            path = Path(out_dir) / "posts.csv"
            fmt = "csv"
    if not path.exists():
        raise MissingArtifactError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        posts = ingest.parse_posts(fh, fmt)
    stats = ingest.corpus_stats(posts)
    _write(_canonical_posts_path(out_dir), ingest.serialize_posts(posts, "jsonl"))
    payload = {
        "post_count": stats.post_count,
        "user_count": stats.user_count,
        "thread_count": stats.thread_count,
        "avg_thread_depth": stats.avg_thread_depth,
        "first_post": ingest.format_timestamp(stats.first_post),
        "last_post": ingest.format_timestamp(stats.last_post),
    }
    _write(Path(out_dir) / "corpus_stats.json",
           json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _windows(cfg, out_dir):
    """The window calendar, from the first and last post in corpus_stats.json."""
    path = Path(out_dir) / "corpus_stats.json"
    _require(path, "ingest")
    try:
        stats = json.loads(path.read_text("utf-8"))
        first, last = (ingest.parse_timestamp(stats[k]) for k in ("first_post", "last_post"))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed {path}: {exc}") from None
    return graph_mod.build_windows(first, last, int(cfg["window_days"]))


def stage_snapshots(cfg, out_dir, seed):
    del seed
    graphs = graph_mod.window_graphs(_load_posts(out_dir), _windows(cfg, out_dir))
    _write(Path(out_dir) / "graphs" / "edges.csv", graph_mod.edges_csv(graphs))


def _read_graphs(cfg, out_dir):
    """(windows, one graph per window) from graphs/edges.csv."""
    path = Path(out_dir) / "graphs" / "edges.csv"
    _require(path, "snapshots")
    windows = _windows(cfg, out_dir)
    with open(path, newline="", encoding="utf-8") as fh:
        return windows, graph_mod.graphs_from_csv(fh, windows)


def stage_communities(cfg, out_dir, seed):
    del seed
    communities = []
    for g in _read_graphs(cfg, out_dir)[1]:
        communities.extend(community_mod.detect_communities(g, cfg["propinquity"]))
    _write(Path(out_dir) / "communities.csv", community_mod.communities_csv(communities))


def _read_communities(out_dir):
    path = Path(out_dir) / "communities.csv"
    _require(path, "communities")
    by_key = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (int(row["snapshot_index"]), int(row["community_id"]))
            by_key.setdefault(key, set()).add(row["user_id"])
    by_snapshot = {}
    for (snap, cid), members in sorted(by_key.items()):
        by_snapshot.setdefault(snap, []).append(
            community_mod.Community(snapshot_index=snap, community_id=cid,
                                    members=frozenset(members)))
    return by_snapshot


def stage_roles(cfg, out_dir, seed):
    del cfg, seed
    by_snapshot = _read_communities(out_dir)
    labels = evolution.label_all(by_snapshot)
    _write(Path(out_dir) / "roles.csv", evolution.roles_csv(labels))


def _read_roles(out_dir):
    path = Path(out_dir) / "roles.csv"
    _require(path, "roles")
    labels = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            labels.append(evolution.RoleLabel(
                user_id=row["user_id"],
                snapshot_index=int(row["snapshot_index"]),
                role=evolution.Role(row["role"]),
                community_id=int(row["community_id"]),
            ))
    return labels


def stage_features(cfg, out_dir, seed):
    del seed
    labels = _read_roles(out_dir)
    ctx = featureset.FeatureContext(_load_posts(out_dir), *_read_graphs(cfg, out_dir),
                                    _read_communities(out_dir), _lexicon(cfg), _intents(cfg))
    examples = featureset.build_dataset(labels, _task(cfg), ctx)
    _write(Path(out_dir) / "dataset.csv", featureset.dataset_csv(examples))


def _read_dataset(out_dir):
    path = Path(out_dir) / "dataset.csv"
    _require(path, "features")
    X_rows = []
    y_rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["task", "snapshot_index", "user_id", "label"] + featureset.FEATURE_NAMES
        if header != expected:
            raise ParseError(f"unexpected dataset header in {path}")
        for row in reader:
            y_rows.append(float(row[3]))
            X_rows.append([float(v) for v in row[4:]])
    if not X_rows:
        raise DegenerateDatasetError(f"dataset {path} holds no rows")
    return np.array(X_rows), np.array(y_rows)


def stage_train(cfg, out_dir, seed):
    X, y = _read_dataset(out_dir)
    balance = _BALANCE[cfg["balance"].lower()]
    for key, preset in zip(model.PRESET_KEYS, model.table2_presets()):
        report = model.monte_carlo_cv(
            X, y, preset,
            repeats=int(cfg["repeats"]),
            train_fraction=float(cfg["train_fraction"]),
            hyper=cfg["hyper"],
            seed=seed,
            balance=balance,
        )
        _write(Path(out_dir) / "reports" / f"{key}.json", model.report_json(report))


def stage_report(cfg, out_dir, seed):
    del cfg, seed
    reports = []
    for key in model.PRESET_KEYS:
        path = Path(out_dir) / "reports" / f"{key}.json"
        _require(path, "train")
        try:
            reports.append(model.report_from_json(path.read_text("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed report {path}: {exc}") from None
    _write(Path(out_dir) / "report_table.txt", model.report_table(reports))


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


def run_pipeline(cfg, out_dir, seed, quiet=False):
    """Execute all stages in order against one output directory."""
    for name in _RUN_ORDER:
        if not quiet:
            print(f"[{name}] running", file=sys.stderr)
        try:
            _STAGES[name](cfg, out_dir, seed)
        except ForumFluxError as exc:
            raise type(exc)(f"stage {name}: {exc}") from exc


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="forumflux",
        description="Forum community churn pipeline: snapshots, communities, "
                    "roles, features, and churn models.",
    )
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run every stage in order")
    for name in _STAGES:
        sub.add_parser(name, help=f"run only the {name} stage")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg["out"]
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
            _check_value("seed", cfg["seed"])
        seed = int(cfg["seed"])
        if args.command == "run":
            run_pipeline(cfg, out_dir, seed, quiet=args.quiet)
        else:
            _STAGES[args.command](cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ForumFluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
