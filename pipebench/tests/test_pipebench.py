"""Tests of the pipeline benchmark itself.

    PYTHONPATH=src python3 -m pytest -q pipebench/tests
"""

import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import corpora  # noqa: E402
import run  # noqa: E402
from spans import self_times  # noqa: E402

from forumflux import cli, community, evolution, graph, ingest, lexifeat  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY_CONFIG = ("repeats = 3", "epochs = 100")
TINY = {
    "pools": run.Workload(lambda seed: corpora.pools_corpus(seed, 60, 96, 5, 1.0),
                          config=TINY_CONFIG),
    "forum": run.Workload(lambda seed: corpora.forum_corpus(seed, 60, 3, 4, 4, 0.5),
                          config=TINY_CONFIG + ("balance = true",)),
    "staged": run.Workload(lambda seed: corpora.pools_corpus(seed, 60, 96, 5, 1.0),
                           staged=True, config=TINY_CONFIG),
}


@pytest.mark.parametrize("make", [
    lambda seed: corpora.pools_corpus(seed, 60, 96, 5, 0.2),
    lambda seed: corpora.forum_corpus(seed, 60, 3, 4, 4, 0.5),
], ids=["pools", "forum"])
def test_generators_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3)[0] != make(4)[0]


def test_generated_posts_parse_and_fill_every_window():
    data, n_posts = corpora.forum_corpus(5, 60, 3, 4, 4, 0.5)
    posts = ingest.parse_posts(io.BytesIO(data), "jsonl")
    assert len(posts) == n_posts
    stats = ingest.corpus_stats(posts)
    windows = graph.build_windows(stats.first_post, stats.last_post, corpora.WINDOW_DAYS)
    assert len(windows) == 4
    assert all(graph.build_graph(posts, w).edges for w in windows)


def test_signal_words_keep_their_lexicon_categories():
    lex = lexifeat.default_lexicon()
    assert all(lex.categories_for(w) == {"cogmech"} for w in corpora.COGNITION_WORDS)
    assert all(lex.categories_for(w) & lexifeat.SENTIMENT_CATEGORIES
               for w in corpora.SENTIMENT_WORDS)
    assert not any(lex.categories_for(w) for w in corpora.FILLER_WORDS)
    phrases = lexifeat.default_intent_patterns().phrases
    assert all(tuple(p.split()) in phrases for p in corpora.INTENT_PHRASES)


@pytest.mark.parametrize("seed", range(5))
def test_forum_seeds_give_leavers_and_stayers(seed):
    data, _ = run.WORKLOADS["forum"].corpus(seed)
    posts = ingest.parse_posts(io.BytesIO(data), "jsonl")
    stats = ingest.corpus_stats(posts)
    by_snapshot = {}
    for w in graph.build_windows(stats.first_post, stats.last_post, corpora.WINDOW_DAYS):
        by_snapshot[w.index] = community.detect_communities(graph.build_graph(posts, w))
    roles = {label.role for label in evolution.label_all(by_snapshot)}
    assert {evolution.Role.LEAVING, evolution.Role.STAYING} <= roles


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: [1, 6] is covered once
        ["c", 7.0, 8.0, 0],
        ["d", 1.5, 2.0, 1],
        ["e", 2.5, 3.5, 1],
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 1.0, 0.5, 1.0])


def test_layer_metrics_from_span_dumps():
    dump = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["cli.stage.features", 1.0, 9.0, 0],
            ["kernels.centrality_csr", 2.0, 4.0, 1],
            ["kernels.centrality_csr", 5.0, 6.0, 1],
            ["graph.build_graph", 6.0, 6.5, 1],
        ],
        "calls": {"kernels.centrality_csr": 2, "graph.build_graph": 1},
        "sizes": {"kernels.source_edge_visits": 3_000_000_000},
        "windows": {"0": [5, 7]},
    }
    other = dict(dump, spans=[["graph.build_graph", 0.0, 0.5, -1]],
                 calls={"graph.build_graph": 1}, sizes={}, windows={"1": [9, 2]})
    m, summary = run.layer_metrics([dump, other], n_posts=10, artifact_bytes=99,
                                   traced_s=12.0, untraced_s=11.5)
    assert set(m) == set(run.PER_LAYER)
    assert m["kernels.centrality_csr.self_s"] == pytest.approx(3.0)
    assert m["kernels.ns_per_source_edge"] == pytest.approx(1.0)
    assert m["graph.build_graph.calls_per_window"] == pytest.approx(1.0)
    assert m["graph.window_nodes_max"] == 9 and m["graph.edges_total"] == 9
    assert m["cli.stage.features.s"] == pytest.approx(8.0)
    assert m["cli.stage.features.self_s"] == pytest.approx(4.5)
    assert m["tracing_overhead_s"] == pytest.approx(0.5)
    assert summary["stage_coverage_of_cli_main"] == pytest.approx(0.8)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_run_stages_match_the_cli():
    assert run.RUN_STAGES == cli._RUN_ORDER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_output_checks(tmp_path, name, trace):
    result, record = run.measure(TINY[name], seed=1, seconds=0, trace=trace,
                                 work=tmp_path / "work")
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] == 2 + TINY[name].staged + trace
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert len(record["artifacts"]) == len(run.ARTIFACTS)
    if trace:
        # stage spans cover each process's cli.main but for argument and config parsing
        assert record["cli_main_outside_stages_s"] < 0.01 * record["traced_processes"], record
        assert result["metrics"]["kernels.centrality_csr.calls"]["value"] > 0
    else:
        assert all(result["metrics"][f"f_measure.{p}"]["value"] > 0 for p in run.PRESETS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "pools",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
