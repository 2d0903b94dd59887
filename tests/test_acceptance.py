"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion output.
"""

import filecmp
import io
import time
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from forumflux import community as community_mod
from forumflux import featureset, graph as graph_mod, ingest, lexifeat, model
from forumflux.cli import main as cli_main
from forumflux.community import PropinquityConfig, detect_communities, modularity
from forumflux.evolution import Role, Task, label_all, label_roles
from forumflux.graph import build_windows

from conftest import (TWO_TRIANGLES_BRIDGE, centrality_all, feature_context, make_community,
                      make_graph)
from test_graph import oracle_betweenness, oracle_closeness, random_graph


@pytest.fixture(scope="module", autouse=True)
def warm_jit():
    # JIT compilation is excluded from the per-criterion timing budgets.
    centrality_all(make_graph([("a", "b")]))


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, text, t):
    print(f"PASS criterion {number}: {text} ({t.elapsed:.2f}s)")


def test_criterion_1_window_count():
    with Timer() as t:
        first = datetime(2000, 4, 21, tzinfo=timezone.utc)
        last = datetime(2013, 4, 25, tzinfo=timezone.utc)
        windows = build_windows(first, last, 24)
        assert len(windows) == 199
    assert t.elapsed < 1.0
    report(1, "2000-04-21..2013-04-25 at 24 days gives exactly 199 windows", t)


def test_criterion_2_centrality_oracle():
    with Timer() as t:
        rng = np.random.default_rng(2024)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(1, 8)), p=float(rng.uniform(0.2, 0.8)))
            clo, bet = centrality_all(g)
            exp_clo = oracle_closeness(g)
            exp_bet = oracle_betweenness(g)
            for u in g.nodes:
                assert abs(clo[u] - exp_clo[u]) <= 1e-9
                assert abs(bet[u] - exp_bet[u]) <= 1e-9
    assert t.elapsed < 10.0
    report(2, "closeness/betweenness match brute force on 100 random graphs", t)


def test_criterion_3_modularity():
    with Timer() as t:
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        q = modularity(g, [make_community("abc", 0), make_community("def", 1)])
        assert abs(q - 5 / 14) <= 1e-12
        assert modularity(g, [make_community("abcdef")]) == 0.0
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            nodes = [f"n{i}" for i in range(n)]
            edges = [(a, b) for a, b in combinations(nodes, 2) if rng.random() < 0.4]
            rg = make_graph(edges, extra_nodes=nodes)
            k = int(rng.integers(1, n + 1))
            assignment = rng.integers(0, k, size=n)
            comms = [make_community([nodes[i] for i in range(n) if assignment[i] == c], c)
                     for c in range(k)
                     if any(assignment[i] == c for i in range(n))]
            assert -0.5 <= modularity(rg, comms) <= 1.0
    assert t.elapsed < 10.0
    report(3, "modularity fixtures exact and bounded on 1000 random partitions", t)


def test_criterion_4_propinquity_detection():
    with Timer() as t:
        g = make_graph(TWO_TRIANGLES_BRIDGE)
        config = PropinquityConfig(alpha=1, beta=3, min_community_size=3)
        runs = [detect_communities(g, config) for _ in range(10)]
        assert all(r == runs[0] for r in runs)
        assert [c.members for c in runs[0]] == [frozenset("abc"), frozenset("def")]
    assert t.elapsed < 1.0
    report(4, "bridge graph splits into the two triangles, 10 identical runs", t)


def test_criterion_5_role_rules():
    with Timer() as t:
        previous = [make_community("abcd", 0, snapshot_index=0)]
        current = [make_community("abce", 0, snapshot_index=1)]
        labels = label_roles(current, previous)
        by_role = {}
        for l in labels:
            by_role.setdefault(l.role, set()).add(l.user_id)
        assert by_role == {Role.JOINING: {"e"}, Role.PREVIOUS: {"a", "b", "c"},
                           Role.LEAVING: {"d"}, Role.STAYING: {"a", "b", "c"}}
        # persistence exactly 0.5: no Joining; continuity exactly 0.5: Leaving/Staying
        boundary = label_roles([make_community("abxy", 0, snapshot_index=1)],
                               [make_community("abcd", 0, snapshot_index=0)])
        roles = {l.role for l in boundary}
        assert Role.JOINING not in roles and Role.PREVIOUS not in roles
        assert Role.LEAVING in roles and Role.STAYING in roles
    assert t.elapsed < 1.0
    report(5, "role scenario table and the 0.5 persistence/continuity boundary", t)


def test_criterion_6_gradient_check():
    with Timer() as t:
        rng = np.random.default_rng(6)
        step = 1e-5
        for _ in range(50):
            m = int(rng.integers(2, 21))
            X = rng.normal(size=(m, 18))
            y = rng.integers(0, 2, size=m).astype(np.float64)
            w = rng.normal(scale=0.5, size=18)
            b = float(rng.normal(scale=0.5))
            lam = float(rng.uniform(0, 0.1))
            _, grad_w, grad_b = model.loss_and_gradient(w, b, X, y, lam)
            for j in range(18):
                e = np.zeros(18)
                e[j] = step
                lp = model.loss_and_gradient(w + e, b, X, y, lam)[0]
                lm = model.loss_and_gradient(w - e, b, X, y, lam)[0]
                fd = (lp - lm) / (2 * step)
                assert abs(grad_w[j] - fd) <= 1e-6 * max(1e-3, abs(fd))
            lp = model.loss_and_gradient(w, b + step, X, y, lam)[0]
            lm = model.loss_and_gradient(w, b - step, X, y, lam)[0]
            assert abs(grad_b - (lp - lm) / (2 * step)) <= 1e-6 * max(1e-3, abs(grad_b))
    assert t.elapsed < 5.0
    report(6, "analytic gradient matches finite differences on 50 instances", t)


def test_criterion_7_separable_data():
    with Timer() as t:
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 18))
        w_true = rng.normal(size=18)
        y = (X @ w_true > 0).astype(np.float64)
        mean, std = model.normalize_fit(X)
        X = (X - mean) / std
        W, b = model.train(X, y, [np.ones(18, bool)])
        f_measure = float(model._score(W, b, X, y)[2][0])
        assert f_measure >= 0.95
    assert t.elapsed < 5.0
    report(7, f"separable data reaches F={f_measure:.3f} >= 0.95", t)


def _pipeline_f_measure(strength, seed=7, repeats=20):
    posts = ingest.generate_synthetic_forum(
        seed, ingest.SynthParams(churn_signal_strength=strength))
    ctx, communities = feature_context(
        posts, 24, lexifeat.default_lexicon(), lexifeat.default_intent_patterns(),
        PropinquityConfig())
    dataset = featureset.build_dataset(label_all(communities), Task.LEAVE_VS_STAY, ctx)
    X, y = featureset.dataset_from_csv(io.StringIO(
        featureset.dataset_csv(Task.LEAVE_VS_STAY, *dataset), newline=""))
    rep = model.monte_carlo_cv(X, y, [model.table2_presets()[0]],
                               repeats=repeats, seed=0)[0]
    return len(posts), rep["metrics"]["f_measure"]["mean"]


def test_criterion_8_planted_signal_recovery():
    with Timer() as t:
        n_posts, f_strong = _pipeline_f_measure(1.0)
        assert 3000 <= n_posts <= 7000  # "~5,000 posts"
        assert f_strong >= 0.8
        _, f_null = _pipeline_f_measure(0.0)
        assert 0.35 <= f_null <= 0.65
    assert t.elapsed < 60.0
    report(8, f"planted signal recovered (F={f_strong:.3f}); "
              f"no-signal F={f_null:.3f} in [0.35, 0.65]", t)


SYNTH_CFG = """
window_days = 24
synth_signal = 1.0
seed = 7
"""


def _full_run(tmp_path, name):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(SYNTH_CFG)
    out = tmp_path / name
    assert cli_main(["--config", str(cfg), "--out", str(out), "--quiet", "synth"]) == 0
    assert cli_main(["--config", str(cfg), "--out", str(out), "--quiet", "run"]) == 0
    return out


def test_criterion_9_ablation_harness(tmp_path):
    out = _full_run(tmp_path, "out")
    with Timer() as t:
        assert cli_main(["--config", str(tmp_path / "pipeline.cfg"),
                         "--out", str(out), "--quiet", "report"]) == 0
        lines = (out / "report_table.txt").read_text().strip().splitlines()
        assert lines[0].split() == ["Model", "Precision", "Recall", "F-measure"]
        rows = lines[1:]
        assert len(rows) == 5
        expected_names = [p.name for p in model.table2_presets()]
        for row, name in zip(rows, expected_names):
            assert row.startswith(name)
        masks = [int(p.feature_mask.sum()) for p in model.table2_presets()]
        assert masks[1] == 15 and masks[2] == 9
    assert t.elapsed < 1.0
    report(9, "report emits the five preset rows; M2=15, M3=9 active features", t)


def test_criterion_10_determinism(tmp_path):
    with Timer() as t8:
        _pipeline_f_measure(1.0)  # reference single-pipeline runtime
    with Timer() as t:
        out_a = _full_run(tmp_path, "a")
        out_b = _full_run(tmp_path, "b")
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), str(rel)
    assert t.elapsed < 2 * max(t8.elapsed * 4, 30.0)
    report(10, f"two full runs byte-identical across {len(files_a)} artifacts", t)
