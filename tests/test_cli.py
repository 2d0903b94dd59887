import contextlib
import csv
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forumflux
from forumflux import cli, featureset, graph as graph_mod, ingest, model
from forumflux.cli import main

from conftest import serialize

SYNTH_CFG = """
# small deterministic pipeline config
window_days = 24
synth_n_users = 60
synth_n_threads = 96
synth_n_windows = 5
synth_signal = 1.0
repeats = 3
epochs = 200
seed = 7
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(SYNTH_CFG)
    return str(path)


@pytest.fixture(scope="module")
def built_tree(tmp_path_factory):
    """(config path, output directory) of `synth` and `run` under SYNTH_CFG, built once
    per module; a test that changes the tree works on a copy."""
    root = tmp_path_factory.mktemp("built")
    cfg = root / "pipeline.cfg"
    cfg.write_text(SYNTH_CFG)
    for command in ("synth", "run"):
        assert run_cli("--config", str(cfg), "--out", str(root / "out"), "--quiet", command) == 0
    return cfg, root / "out"


def copy_tree(built_tree, tmp_path):
    shutil.copytree(built_tree[1], tmp_path / "out")
    return tmp_path / "out"


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv, **env):
    """`python -m forumflux.cli *argv` in a child process, where a traceback shows in stderr;
    env holds extra environment variables."""
    env = dict(os.environ, PYTHONPATH=str(Path(forumflux.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "forumflux.cli", *argv],
                          capture_output=True, text=True, env=env)


def artifact_tree(out_dir):
    return sorted(str(p.relative_to(out_dir)) for p in Path(out_dir).rglob("*") if p.is_file())


class TestStages:
    def test_synth_then_ingest(self, tmp_path, config_path):
        out = str(tmp_path / "out")
        assert run_cli("--config", config_path, "--out", out, "--quiet", "synth") == 0
        assert (Path(out) / "posts.jsonl").exists()
        assert run_cli("--config", config_path, "--out", out, "--quiet", "ingest") == 0
        stats = json.loads((Path(out) / "corpus_stats.json").read_text())
        assert stats["post_count"] > 0
        assert stats["user_count"] <= 60

    def test_stage_gating(self, tmp_path, config_path):
        out = str(tmp_path / "out")
        assert run_cli("--config", config_path, "--out", out, "--quiet", "communities") == 2

    def test_missing_input(self, tmp_path, config_path):
        out = str(tmp_path / "out")
        assert run_cli("--config", config_path, "--out", out, "--quiet", "ingest") == 2

    def test_unknown_or_missing_command_exits_1(self, capsys):
        assert run_cli("bogus") == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert run_cli("--quiet") == 1
        assert "required: command" in capsys.readouterr().err

    def test_help_lists_every_stage(self, capsys):
        assert run_cli("--help") == 0
        assert "{" + ",".join(["run", *cli._STAGES]) + "}" in capsys.readouterr().out

    def test_options_may_follow_the_command(self, built_tree, tmp_path, capsys):
        out = copy_tree(built_tree, tmp_path)
        assert run_cli("run", "--config", str(built_tree[0]), "--out", str(out), "--quiet") == 0
        assert capsys.readouterr().err == ""  # --quiet took effect
        assert artifact_tree(out) == artifact_tree(built_tree[1])
        for rel in artifact_tree(out):
            assert filecmp.cmp(out / rel, built_tree[1] / rel, shallow=False), rel

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("surprise = 1\n")
        assert run_cli("--config", str(cfg), "--quiet", "synth") == 1


HUGE = "1" + "0" * 400  # an int that math.isfinite cannot convert to a float


@pytest.mark.parametrize("line", ["window_days = 1.5", "synth_signal = nan", "seed = -1",
                                  "alpha = x", "epochs = 1e3", "balance = on",
                                  f"seed = {HUGE}", f"alpha = {HUGE}", f"epochs = {HUGE}"])
def test_malformed_config_value_exits_1(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SYNTH_CFG + line + "\n")
    for command in ("synth", "run"):
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                          command)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert line.split()[0] in proc.stderr


# {tmp} is the test's directory: a word list that is missing, or a directory
@pytest.mark.parametrize("line", ["repeats = 0", "train_fraction = 1", "epochs = 0", "beta = 1",
                                  "l2_lambda = 0",
                                  "window_days = 0", "task = bogus", "format = xml",
                                  "synth_n_users = 0", "synth_n_users = 5",
                                  "lexicon = {tmp}/missing.tsv", "lexicon = {tmp}",
                                  "intents = {tmp}/missing.txt", "intents = {tmp}"])
def test_out_of_range_config_exits_before_any_stage_writes(tmp_path, line):
    line = line.format(tmp=tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(ingest.serialize_posts(
        ingest.generate_synthetic_forum(7, ingest.SynthParams(n_users=60, n_threads=96,
                                                              n_windows=5))))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SYNTH_CFG + f"input = {corpus}\n" + line + "\n")
    for command in ("synth", "run"):
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                          command)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert line.split()[0] in proc.stderr
        assert not (tmp_path / "out").exists()


def test_synth_calendar_past_year_9999_exits_1_before_writing(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(SYNTH_CFG + "synth_n_windows = 12\nwindow_days = 250000\n")
    proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet", "synth")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: config keys 'window_days' and 'synth_n_windows': 12 windows "
                           "of 250000 days end after year 9999\n")
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_1(tmp_path, config_path):
    proc = run_module("--config", config_path, "--out", str(tmp_path / "out"), "--quiet",
                      "--seed", "-1", "synth")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "seed" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_huge_seed_flag_exits_1(tmp_path, capsys):
    assert run_cli("--out", str(tmp_path / "out"), "--quiet", "--seed", HUGE, "synth") == 1
    assert capsys.readouterr().err.startswith("error: config key 'seed' must be an integer")
    assert not (tmp_path / "out").exists()


def test_config_file_not_utf8_exits_1(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(SYNTH_CFG.encode() + b"# caf\xe9\n")
    for command in ("synth", "report"):
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                          command)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: malformed {cfg}: "), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, text", [("lexicon", b"happy\tposemo\n\xff\tposemo\n"),
                                       ("intents", b"i will go\n\xff bye\n")],
                         ids=["lexicon", "intents"])
def test_lexicon_not_utf8_exits_1(tmp_path, key, text):
    words = tmp_path / "words.txt"
    words.write_bytes(text)
    cfg = tmp_path / "lexicon.cfg"
    cfg.write_text(SYNTH_CFG + f"{key} = {words}\n")
    proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet", "synth")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: config key {key!r}: malformed {words}: "), proc.stderr
    assert not (tmp_path / "out").exists()


def test_task_key_is_case_insensitive(tmp_path):
    cfg = tmp_path / "join.cfg"
    cfg.write_text(SYNTH_CFG + "task = joinvsprevious\n")
    out = tmp_path / "out"
    assert run_cli("--config", str(cfg), "--out", str(out), "--quiet", "synth") == 0
    assert run_cli("--config", str(cfg), "--out", str(out), "--quiet", "run") == 0
    with open(out / "dataset.csv", newline="", encoding="utf-8") as fh:
        tasks = {row["task"] for row in csv.DictReader(fh)}
    assert tasks == {"JoinVsPrevious"}


class TestFullRun:
    def test_run_produces_all_artifacts(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "synth") == 0
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "run") == 0
        files = artifact_tree(out)
        for expected in ["corpus_stats.json", "graphs/edges.csv", "communities.csv",
                         "roles.csv", "dataset.csv", "report_table.txt"]:
            assert expected in files
        for key in ["m1", "m2", "m3", "m1_no_modularity", "m3_no_avg_centrality"]:
            assert f"reports/{key}.json" in files

    def test_report_emits_five_preset_rows(self, tmp_path, config_path):
        out = tmp_path / "out"
        run_cli("--config", config_path, "--out", str(out), "--quiet", "synth")
        run_cli("--config", config_path, "--out", str(out), "--quiet", "run")
        lines = (out / "report_table.txt").read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["Model", "Precision", "Recall", "F-measure"]
        assert lines[1].startswith("M1: all features")
        assert lines[3].startswith("M3: M1 without any sentiment, cognition, intent")

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("--config", config_path, "--out", str(out), "--quiet", "synth")
            run_cli("--config", config_path, "--out", str(out), "--quiet", "run")
            outs.append(out)
        tree_a, tree_b = map(artifact_tree, outs)
        assert tree_a == tree_b
        for rel in tree_a:
            assert filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False), rel

    def test_stage_isolation_equals_run(self, tmp_path, config_path, monkeypatch):
        parses = []
        parse_posts = ingest.parse_posts
        monkeypatch.setattr(ingest, "parse_posts",
                            lambda *args: parses.append(args) or parse_posts(*args))
        staged = tmp_path / "staged"
        run_cli("--config", config_path, "--out", str(staged), "--quiet", "synth")
        for stage in ("ingest", "snapshots", "communities", "roles",
                      "features", "train", "report"):
            assert run_cli("--config", config_path, "--out", str(staged),
                           "--quiet", stage) == 0
        # ingest, snapshots and features each read posts.jsonl
        assert len(parses) == 3
        whole = tmp_path / "whole"
        run_cli("--config", config_path, "--out", str(whole), "--quiet", "synth")
        run_cli("--config", config_path, "--out", str(whole), "--quiet", "run")
        assert len(parses) == 4  # run hands the posts ingest parsed on
        for rel in artifact_tree(staged):
            assert filecmp.cmp(staged / rel, whole / rel, shallow=False), rel

    def test_training_that_does_not_converge_exits_3(self, tmp_path, config_path):
        out = str(tmp_path / "out")
        for stage in ("synth", "ingest", "snapshots", "communities", "roles", "features"):
            assert run_cli("--config", config_path, "--out", out, "--quiet", stage) == 0
        cfg = tmp_path / "capped.cfg"
        cfg.write_text(SYNTH_CFG + "epochs = 1\n")
        proc = run_module("--config", str(cfg), "--out", out, "--quiet", "train")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: a fit did not converge within epochs = 1 "), \
            proc.stderr
        assert not (Path(out) / "reports").exists()

    def test_run_does_not_depend_on_the_blas_thread_count(self, built_tree, tmp_path):
        trees = []
        for threads in ("1", "2"):
            shutil.copytree(built_tree[1], tmp_path / threads)
            trees.append(tmp_path / threads)
            proc = run_module("--config", str(built_tree[0]), "--out", str(trees[-1]), "--quiet",
                              "run", OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
        assert artifact_tree(trees[0]) == artifact_tree(trees[1])
        for rel in artifact_tree(trees[0]):
            assert filecmp.cmp(trees[0] / rel, trees[1] / rel, shallow=False), rel

    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("--config", config_path, "--out", str(a), "--quiet", "synth")
        run_cli("--config", config_path, "--out", str(b), "--quiet",
                "--seed", "99", "synth")
        assert (a / "posts.jsonl").read_bytes() != (b / "posts.jsonl").read_bytes()


def test_csv_input_runs_like_jsonl_input(tmp_path):
    posts = small_corpus()
    for fmt in ("csv", "jsonl"):
        (tmp_path / f"corpus.{fmt}").write_bytes(serialize(posts, fmt))
        cfg = tmp_path / f"{fmt}.cfg"
        cfg.write_text(SYNTH_CFG + f"input = {tmp_path / f'corpus.{fmt}'}\nformat = {fmt}\n")
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / fmt), "--quiet", "run") == 0
    trees = [tmp_path / fmt for fmt in ("csv", "jsonl")]
    assert artifact_tree(trees[0]) == artifact_tree(trees[1])
    for rel in artifact_tree(trees[0]):
        assert filecmp.cmp(trees[0] / rel, trees[1] / rel, shallow=False), rel


@pytest.mark.parametrize("bad_line", [
    b"[" * 100_000, b'{"post_id": "x", "thread_id": "t", "user_id": "' + b"u" * 140_000
    + b'", "created_at": "2020-01-01T00:00:00Z", "body": ""}'], ids=["deep", "long user id"])
def test_input_error_names_the_file_and_line(tmp_path, capsys, bad_line):
    lines = ingest.serialize_posts(small_corpus()[:4]).splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(lines[:2]) + bad_line + b"\n" + b"".join(lines[2:]))
    cfg = tmp_path / "input.cfg"
    cfg.write_text(SYNTH_CFG + f"input = {corpus}\n")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet", "run") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage ingest: malformed {corpus}: "), err
    assert "line 3" in err


def test_input_that_is_a_directory_exits_2(tmp_path, capsys):
    cfg = tmp_path / "input.cfg"
    cfg.write_text(SYNTH_CFG + f"input = {tmp_path}\n")
    # in process, an exception that escapes main fails the test with its traceback
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                   "ingest") == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")


def test_artifact_that_is_a_directory_exits_2(built_tree, tmp_path, capsys):
    out = copy_tree(built_tree, tmp_path)
    path = out / "graphs" / "edges.csv"
    path.unlink()
    path.mkdir()
    assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                   "communities") == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("command, out, prefix", [("run", "taken", "stage ingest: "),
                                                  ("ingest", "taken/sub", "")])
def test_unwritable_output_exits_1_naming_it(built_tree, tmp_path, command, out, prefix):
    """An --out that is a file, or lies under one, is reported like a file that cannot be
    read: one line naming the path, not a traceback."""
    (tmp_path / "taken").write_text("kept\n")
    cfg = tmp_path / "input.cfg"
    cfg.write_text(SYNTH_CFG + f"input = {built_tree[1] / 'posts.jsonl'}\n")
    done = run_module("--config", str(cfg), "--out", str(tmp_path / out), "--quiet", command)
    assert done.returncode == 1
    assert done.stderr.startswith(
        f"error: {prefix}cannot write {tmp_path / out / 'posts.jsonl'}: "), done.stderr
    assert "Traceback" not in done.stderr
    assert (tmp_path / "taken").read_text() == "kept\n"


def write_corpus(out, posts):
    out.mkdir(parents=True, exist_ok=True)
    (out / "posts.jsonl").write_bytes(ingest.serialize_posts(posts))


def small_corpus():
    return ingest.generate_synthetic_forum(7, ingest.SynthParams(
        n_users=60, n_threads=96, n_windows=5, window_days=24))


class TestArtifactInterface:
    def test_ids_with_commas_quotes_and_newlines(self, tmp_path, config_path):
        odd = {f"u{i:04d}": f'smith, j "x"\n{i}' for i in range(0, 60, 3)}
        posts = [replace(p, user_id=odd.get(p.user_id, p.user_id)) for p in small_corpus()]
        out = tmp_path / "out"
        write_corpus(out, posts)
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "run") == 0
        with open(out / "dataset.csv", newline="", encoding="utf-8") as fh:
            users = {row["user_id"] for row in csv.DictReader(fh)}
        assert users & set(odd.values())

    def test_isolated_poster_and_empty_window_staged_equals_run(self, tmp_path):
        cfg = tmp_path / "single.cfg"
        cfg.write_text(SYNTH_CFG + "min_community_size = 1\n")
        width = timedelta(days=24)
        start = min(p.created_at for p in small_corpus())
        # leave window 2 empty: everything from window 2 on moves one window later
        posts = [p if p.created_at < start + 2 * width
                 else replace(p, created_at=p.created_at + width) for p in small_corpus()]
        posts.append(ingest.PostRecord("loner-post", "loner-thread", "loner",
                                       start + width + timedelta(hours=1), "hello"))
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        for out in (staged, whole):
            write_corpus(out, posts)
        for stage in ("ingest", "snapshots", "communities", "roles", "features",
                      "train", "report"):
            assert run_cli("--config", str(cfg), "--out", str(staged), "--quiet", stage) == 0
        assert run_cli("--config", str(cfg), "--out", str(whole), "--quiet", "run") == 0
        assert artifact_tree(staged) == artifact_tree(whole)
        for rel in artifact_tree(staged):
            assert filecmp.cmp(staged / rel, whole / rel, shallow=False), rel
        edges = (staged / "graphs" / "edges.csv").read_text().splitlines()
        assert "1,loner,,0" in edges
        assert not any(line.startswith("2,") for line in edges)
        assert "1,0,loner" in (staged / "communities.csv").read_text().splitlines()

    def test_communities_needs_no_posts(self, tmp_path, config_path):
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        (out / "posts.jsonl").unlink()
        assert run_cli("--config", config_path, "--out", str(out), "--quiet",
                       "communities") == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda s: {**s, "first_post": s["last_post"], "last_post": s["first_post"]},
         "first_post must not be after last_post"),
        (lambda s: {**s, "first_post": "yesterday"}, "unparseable timestamp 'yesterday'"),
    ], ids=["swapped dates", "bad timestamp"])
    def test_malformed_corpus_stats_exits_2(self, tmp_path, config_path, capsys, edit, message):
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        path = out / "corpus_stats.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                        encoding="utf-8")
        assert run_cli("--config", config_path, "--out", str(out), "--quiet",
                       "communities") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {path}: ") and message in err

    def test_edge_row_outside_windows_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots", "communities", "roles"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        n_windows = len(cli._windows(cli.load_config(config_path), out))
        with open(out / "graphs" / "edges.csv", "a", encoding="utf-8") as fh:
            fh.write(f"{n_windows},a,b,1\n")
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "features") == 2
        assert "outside the" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["snapshots", "features"])
    def test_empty_posts_after_ingest_exits_2_naming_it(self, built_tree, tmp_path, capsys,
                                                        stage):
        out = copy_tree(built_tree, tmp_path)
        (out / "posts.jsonl").write_bytes(b"")
        # in process, an exception that escapes main fails the test with its traceback
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet", stage) == 2
        assert capsys.readouterr().err == "error: posts.jsonl holds no posts; rerun 'ingest'\n"

    @pytest.mark.parametrize("snapshot", [99, 0])  # Staying at 0 asks for snapshot -1
    def test_role_row_outside_the_calendar_exits_2(self, built_tree, tmp_path, capsys,
                                                   snapshot):
        out = copy_tree(built_tree, tmp_path)
        path = out / "roles.csv"
        user = path.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{snapshot},{user},Staying,0\n")
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "features") == 2
        assert capsys.readouterr().err == (f"error: malformed {path}: user {user!r} has no "
                                           f"activity at snapshot {snapshot - 1}\n")

    def test_role_row_for_an_unknown_user_exits_2(self, built_tree, tmp_path, capsys):
        out = copy_tree(built_tree, tmp_path)
        path = out / "roles.csv"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("2,u9999,Staying,0\n")
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "features") == 2
        assert capsys.readouterr().err == f"error: malformed {path}: unknown user 'u9999'\n"

    def test_user_in_two_communities_fails_features_not_roles(self, built_tree, tmp_path,
                                                               capsys):
        out = copy_tree(built_tree, tmp_path)
        path = out / "communities.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        snap, cid, user = lines[1].split(",")
        other = next(line.split(",")[1] for line in lines[1:]
                     if line.startswith(f"{snap},") and line.split(",")[1] != cid)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{snap},{other},{user}\n")
        # roles allows overlapping communities; modularity in features does not
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "roles") == 0
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "features") == 2
        assert capsys.readouterr().err == (
            f"error: malformed {path}: user {user!r} is in two communities of snapshot "
            f"{snap} at line {len(lines) + 1}\n")

    def test_community_member_outside_the_graph_fails_features_not_roles(self, built_tree,
                                                                         tmp_path, capsys):
        out = copy_tree(built_tree, tmp_path)
        path = out / "communities.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0,99,ghost\n")
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "roles") == 0
        assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet",
                       "features") == 2
        assert capsys.readouterr().err == (
            f"error: malformed {path}: user 'ghost' is not a node of the graph of snapshot 0 "
            f"at line {len(lines) + 1}\n")

    def test_empty_input_exits_2_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(b"")
        cfg = tmp_path / "input.cfg"
        cfg.write_text(SYNTH_CFG + f"input = {corpus}\nformat = csv\n")
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                       "ingest") == 2
        assert capsys.readouterr().err == f"error: {corpus} holds no posts\n"
        assert not (tmp_path / "out").exists()

    def test_posts_emptied_after_synth_fail_ingest_naming_them(self, tmp_path, config_path,
                                                               capsys):
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "synth") == 0
        (out / "posts.jsonl").write_bytes(b"")
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "ingest") == 2
        assert capsys.readouterr().err == f"error: {out / 'posts.jsonl'} holds no posts\n"
        assert not (out / "corpus_stats.json").exists()

    def test_corpus_stats_round_trip(self, tmp_path):
        posts = small_corpus()
        stats = ingest.corpus_stats(posts)
        write_corpus(tmp_path, posts)
        cli.stage_ingest(cli.Config(), tmp_path)
        assert cli._read(tmp_path / "corpus_stats.json", "ingest", cli._post_span) == (
            stats.first_post, stats.last_post)

    def test_downstream_stages_do_not_rebuild_graphs(self, tmp_path, config_path,
                                                     monkeypatch):
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("recomputed from posts")
        for name in ("build_graph", "window_graphs"):
            monkeypatch.setattr(graph_mod, name, forbidden)
        monkeypatch.setattr(ingest, "corpus_stats", forbidden)
        for stage in ("communities", "roles", "features"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0

    def test_post_appended_after_ingest_fails_snapshots(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        for stage in ("synth", "ingest"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        late = ingest.PostRecord("late-post", "late-thread", "late-user",
                                 datetime(2031, 1, 1, tzinfo=timezone.utc), "hello")
        with open(out / "posts.jsonl", "ab") as fh:
            fh.write(ingest.serialize_posts([late]))
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "snapshots") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: post 'late-post' at 2031-01-01") and "rerun 'ingest'" in err
        assert not (out / "graphs").exists()
        for stage in ("ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        assert ",late-user,,0" in (out / "graphs" / "edges.csv").read_text(encoding="utf-8")

    def test_corpus_dated_0999_runs(self, tmp_path, config_path):
        posts = small_corpus()
        shift = datetime(999, 1, 1, tzinfo=timezone.utc) - min(p.created_at for p in posts)
        out = tmp_path / "out"
        write_corpus(out, [replace(p, created_at=p.created_at + shift) for p in posts])
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "run") == 0
        stats = json.loads((out / "corpus_stats.json").read_text(encoding="utf-8"))
        assert stats["first_post"] == "0999-01-01T00:00:00Z"
        assert '"created_at": "0999-01-01T00:00:00Z"' in (out / "posts.jsonl").read_text("utf-8")

    def test_calendar_past_year_9999_fails_snapshots(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        write_corpus(out, [ingest.PostRecord(f"p{i}", "t", f"u{i}",
                                             datetime(9999, 12, 31, i, tzinfo=timezone.utc), "")
                           for i in range(2)])
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "ingest") == 0
        assert run_cli("--config", config_path, "--out", str(out), "--quiet", "snapshots") == 2
        err = capsys.readouterr().err
        assert err == "error: the 24-day window calendar ends after year 9999\n"
        assert not (out / "graphs").exists()

    # 1000000000 days is also beyond the range of a timedelta
    @pytest.mark.parametrize("days", [999999999, 1000000000])
    def test_window_too_wide_for_the_calendar_fails_snapshots(self, tmp_path, capsys, days):
        write_corpus(tmp_path, small_corpus())
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(SYNTH_CFG + f"input = {tmp_path / 'posts.jsonl'}\nwindow_days = {days}\n")
        assert run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                       "run") == 2
        assert capsys.readouterr().err == (f"error: stage snapshots: the {days}-day window "
                                           "calendar ends after year 9999\n")

    def test_features_rejects_graphs_from_another_calendar(self, tmp_path, config_path,
                                                           capsys):
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        twelve = tmp_path / "twelve.cfg"
        twelve.write_text(SYNTH_CFG.replace("window_days = 24", "window_days = 12"))
        assert run_cli("--config", str(twelve), "--out", str(out), "--quiet", "communities") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'graphs' / 'edges.csv'} has no row for the last")
        assert "rerun 'snapshots'" in err
        assert run_cli("--config", str(twelve), "--out", str(out), "--quiet", "roles") == 2
        assert "run 'communities' first" in capsys.readouterr().err

    def test_features_rejects_as_many_windows_of_another_width(self, tmp_path, config_path,
                                                                capsys):
        """A calendar with as many windows of another width gets past communities and
        roles; features stops it."""
        out = tmp_path / "out"
        for stage in ("synth", "ingest", "snapshots"):
            assert run_cli("--config", config_path, "--out", str(out), "--quiet", stage) == 0
        stats = json.loads((out / "corpus_stats.json").read_text())
        span = [ingest.parse_timestamp(stats[k]) for k in ("first_post", "last_post")]
        days = next(d for d in (23, 25, 22, 26) if len(graph_mod.build_windows(*span, d)) == 5)
        other = tmp_path / "other.cfg"
        other.write_text(SYNTH_CFG.replace("window_days = 24", f"window_days = {days}"))
        for stage in ("communities", "roles"):
            assert run_cli("--config", str(other), "--out", str(out), "--quiet", stage) == 0
        assert run_cli("--config", str(other), "--out", str(out), "--quiet", "features") == 2
        assert "rerun 'snapshots'" in capsys.readouterr().err


def bad_byte(data):
    return data + b"\xff"


def garbled_last_line(data):
    return data.rstrip(b"\n").rpartition(b"\n")[0] + b"\n?\n"


def deep_nesting(data):
    return b"[" * 100_000  # too deep for Python's json to parse


@pytest.mark.parametrize("corrupt", [bad_byte, garbled_last_line, deep_nesting],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("name, stage", [
    ("posts.jsonl", "snapshots"), ("corpus_stats.json", "snapshots"),
    ("graphs/edges.csv", "communities"), ("communities.csv", "roles"), ("roles.csv", "features"),
    ("dataset.csv", "train"), ("reports/m1.json", "report")])
def test_malformed_artifact_exits_2_naming_it(built_tree, tmp_path, capsys, name, stage,
                                              corrupt):
    out = copy_tree(built_tree, tmp_path)
    path = out / name
    path.write_bytes(corrupt(path.read_bytes()))
    # in process, an exception that escapes main fails the test with its traceback
    assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet", stage) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {path}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [lambda i, v: float(v) * 1e200,
                                  lambda i, v: 1e307 if i % 2 else -1e307],
                         ids=["scaled by 1e200", "set to +-1e307"])
def test_huge_finite_feature_exits_2_naming_its_line(built_tree, tmp_path, capsys, edit):
    out = copy_tree(built_tree, tmp_path)
    path = out / "dataset.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("last_activity")
    for i, row in enumerate(rows[1:]):
        row[column] = repr(edit(i, row[column]))
    rows[1][column] = repr(edit(1, "1.5"))  # the first row is huge whatever its value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    # standardization would overflow squaring the column, and silently drop the feature
    assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet", "train") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {path}: feature in dataset row at line 2 "), err


def test_report_round_trip(built_tree, tmp_path):
    X, y = cli._read(built_tree[1] / "dataset.csv", "features", featureset.dataset_from_csv)
    presets = model.table2_presets()
    reports = model.monte_carlo_cv(X, y, presets, repeats=2, hyper=model.Hyper(epochs=50))
    for preset, report in zip(presets, reports):
        path = tmp_path / "reports" / f"{preset.key}.json"
        cli._write(path, report)
        assert cli._read(path, "train", model.report_from_json) == report


@pytest.mark.parametrize("edit", [
    lambda report: report["metrics"]["f_measure"].update(mean="0.5"),
    lambda report: report.update(model_name=1),
    lambda report: report["metrics"]["f_measure"].update(mean=float("nan")),
    lambda report: report.update(repeats="many"),
    lambda report: report["metrics"]["f_measure"].update(mean=7.5),
    lambda report: report["metrics"]["recall"].update(std=-1.0)],
    ids=["mean a string", "name a number", "mean NaN", "repeats a string", "mean above 1",
         "std below 0"])
def test_report_of_the_wrong_types_exits_2_naming_it(built_tree, tmp_path, capsys, edit):
    out = copy_tree(built_tree, tmp_path)
    path = out / "reports" / "m1.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report), encoding="utf-8")
    # in process, an exception that escapes main fails the test with its traceback
    assert run_cli("--config", str(built_tree[0]), "--out", str(out), "--quiet", "report") == 2
    assert capsys.readouterr().err.startswith(f"error: malformed {path}: ")


# ids mixing CSV metacharacters, newlines and non-ASCII text
_ids = st.lists(st.text(st.sampled_from(['a', 'b', ',', '"', '\n', 'é', '中']), min_size=1,
                        max_size=3), min_size=8, max_size=12, unique=True)


# local start of the corpus: near both ends of the datetime range and across year 999/1000;
# the last one lies so close to the end that posts are clamped to datetime.max
_starts = [datetime(2020, 1, 1), datetime(2020, 1, 1), datetime(1, 1, 1),
           datetime(999, 12, 31, 12), datetime(9999, 12, 25), datetime(9999, 12, 31)]
# with a start on 1 January, every offset but Z crosses a year boundary into UTC
_offsets = ["Z", "Z", "+00:00", "+01:00", "-01:00", "+23:59", "-23:59"]


@st.composite
def fuzz_corpora(draw):
    """(JSONL bytes, config lines). Each 2-day window holds one thread whose
    posters are a window onto the user list that slides by 2-3 users per
    window, so most corpora have joiners, leavers and stayers to train on;
    a few stray posts add noise. Timestamps share one UTC offset; some
    corpora write every non-ASCII character as a \\u escape, and a few hold
    a lone surrogate, escaped or as raw bytes."""
    users = draw(_ids)
    same_time = draw(st.sampled_from([False, False, False, True]))
    start_at, offset = draw(st.sampled_from(_starts)), draw(st.sampled_from(_offsets))
    rows = []

    def post(w, thread, user, first=False):
        hours = 0 if same_time else 48 * w + (0 if first else draw(st.integers(0, 47)))
        local = start_at + min(timedelta(hours=hours), datetime.max - start_at)
        rows.append({"post_id": f"{w}/{len(rows)}", "thread_id": thread, "user_id": user,
                     "body": draw(st.sampled_from(["happy", "thinking i will go", "",
                                                   "sad think 中", "naïve \U0001F600"])),
                     "created_at": local.isoformat(timespec="seconds") + offset})

    start, size = 0, draw(st.integers(5, 7))
    for w in range(draw(st.sampled_from([3, 2, 3, 1]))):
        for i in range(size):  # the first post opens the window: the calendar starts there
            post(w, f"{w}/main", users[(start + i) % len(users)], first=i == 0)
        for user in draw(st.lists(st.sampled_from(users), max_size=3)):
            post(w, f"{w}/{draw(st.sampled_from('xy'))}", user)
        start += draw(st.integers(2, 3))
    surrogate = draw(st.sampled_from(["", "", "", "", "", "", "\ud800", "x\udc80"]))
    if surrogate:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.sampled_from(["body", "user_id"]))] += surrogate
    config = ["window_days = 2", "repeats = 2", "epochs = 30",
              f"seed = {draw(st.integers(0, 3))}",
              f"task = {draw(st.sampled_from(['LeaveVsStay', 'JoinVsPrevious']))}"]
    escaped = draw(st.booleans())  # unescaped, a lone surrogate becomes bytes that are not UTF-8
    corpus = "".join(json.dumps(row, ensure_ascii=escaped) + "\n" for row in rows)
    return corpus.encode("utf-8", "surrogatepass"), config


@settings(max_examples=30, deadline=None)
@given(fuzz_corpora())
def test_any_ingested_corpus_runs_or_fails_cleanly(case):
    corpus, config = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_bytes(corpus)
        (tmp / "run.cfg").write_text("\n".join([f"input = {tmp / 'corpus.jsonl'}", *config]),
                                     encoding="utf-8")
        codes = []
        # one `run`, then the seven stages one by one up to the first failure
        stages = ["ingest", "snapshots", "communities", "roles", "features", "train", "report"]
        for out, commands in (("a", ["run"]), ("b", stages)):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                for command in commands:
                    code = main(["--config", str(tmp / "run.cfg"), "--out", str(tmp / out),
                                 "--quiet", command])
                    if code != 0:
                        break
            codes.append(code)
            assert codes[-1] in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert (codes[-1] == 0) == (err.getvalue() == ""), err.getvalue()
            assert codes[-1] == 0 or err.getvalue().startswith("error: ")
        assert codes[0] == codes[1]
        if codes[0] == 0:
            assert artifact_tree(tmp / "a") == artifact_tree(tmp / "b")
            for rel in artifact_tree(tmp / "a"):
                assert filecmp.cmp(tmp / "a" / rel, tmp / "b" / rel, shallow=False), rel
