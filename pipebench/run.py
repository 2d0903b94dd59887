"""Pipeline benchmark: `forumflux run` wall time, memory, set-up and F table.

    python3 pipebench/run.py --workload pools --seed 1 --seconds 30 --trace 0

Run from the root of a forumflux checkout; the pipeline is imported from its
`src/`. Each invocation generates the workload's corpus from --seed (outside
the timed region), then runs the pipeline as a closed loop: one pipeline at a
time, in fresh child processes, for about --seconds and at least twice.
Every run is checked (exit codes, artifacts, a 5-row report table with F in
[0, 1], a byte-identical artifact tree across runs) and a run failing any
check counts as failed.

Workloads:
  pools   disjoint 30-user clique pools (the shape of the built-in synthetic
          corpus): lexicon, features and training dominate; window graphs
          are large (560 nodes), sparse and disconnected.
  forum   overlapping, heavy-tailed, hub-heavy communities: community
          detection and centrality dominate.
  staged  the pools corpus run as seven `forumflux <stage>` processes, each
          re-reading its upstream artifacts; its artifact tree must equal
          that of one in-process `run` on the same corpus.

With --trace 0 the result carries the end-to-end metrics; with --trace 1 one
more run is made with spans recorded around each layer (see spans.py), and
the result carries the per-layer metrics. Earlier stdout lines print every
metric with its unit and a `record` JSON line holding the environment, the
samples and the artifact digests; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path
from typing import Callable

import corpora
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_STAGES = ["ingest", "snapshots", "communities", "roles", "features", "train", "report"]
PRESETS = ["m1", "m2", "m3", "m1_no_modularity", "m3_no_avg_centrality"]
ARTIFACTS = (["posts.jsonl", "corpus_stats.json", "graphs/edges.csv", "communities.csv",
              "roles.csv", "dataset.csv", "report_table.txt"]
             + [f"reports/{p}.json" for p in PRESETS])
SETUP_PROBES_PER_RUN = 2  # taken after each pipeline run, so they span the run loop
INVOCATION_LIMIT_S = 170.0
BLAS_THREADS = 1
BLAS_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]

END_TO_END = {
    "run_s": "s",
    "posts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"f_measure.{p}": "F" for p in PRESETS},
}
PER_LAYER = {
    "ingest.parse_posts.calls": "count",
    "ingest.parse_posts.self_s": "s",
    "ingest.posts_parsed_per_post": "ratio",
    "ingest.corpus_stats.calls": "count",
    "ingest.serialize_posts.self_s": "s",
    "graph.build_graph.calls": "count",
    "graph.build_graph.calls_per_window": "ratio",
    "graph.build_graph.self_s": "s",
    "graph.edges_csv.self_s": "s",
    "graph.window_nodes_max": "count",
    "graph.edges_total": "count",
    "kernels.centrality_csr.calls": "count",
    "kernels.centrality_csr.self_s": "s",
    "kernels.source_edge_visits": "count",
    "kernels.ns_per_source_edge": "ns",
    "community.detect_communities.calls": "count",
    "community.detect_communities.self_s": "s",
    "community.propinquity.calls": "count",
    "community.modularity.self_s": "s",
    "community.communities_csv.self_s": "s",
    "evolution.label_all.self_s": "s",
    "evolution.labels": "count",
    "lexifeat.text_measures.calls": "count",
    "lexifeat.text_measures.self_s": "s",
    "lexifeat.tokens": "count",
    "lexifeat.ns_per_token": "ns",
    "featureset.FeatureContext.self_s": "s",
    "featureset.assemble_features.calls": "count",
    "featureset.assemble_features.self_s": "s",
    "featureset.dataset_csv.self_s": "s",
    "model.monte_carlo_cv.self_s": "s",
    "model.train.calls": "count",
    "model.train.self_s": "s",
    "model.loss_and_gradient.calls": "count",
    "model.train_row_epochs": "count",
    "model.ns_per_row_epoch": "ns",
    **{f"cli.stage.{s}.{k}": "s" for s in RUN_STAGES for k in ("s", "self_s")},
    "cli.artifact_bytes": "bytes",
    "tracing_overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    corpus: Callable    # seed -> (JSONL bytes, post count)
    staged: bool = False
    config: tuple = ()  # extra `key = value` config lines


def _pools(seed):
    return corpora.pools_corpus(seed, n_users=1200, n_threads=640, n_windows=4, signal=0.2)


WORKLOADS = {
    "pools": Workload(_pools),
    # balance: leavers are a third of the rows, and the text-free presets
    # would otherwise predict no leaver at all (F = 0)
    "forum": Workload(lambda seed: corpora.forum_corpus(
        seed, n_users=240, n_communities=5, n_windows=8, threads_per_cw=12, signal=0.5),
        config=("balance = true",)),
    # the pools corpus: its F table matches pools at the same seed, and its
    # run_s minus that of pools is the cost of the artifact path
    "staged": Workload(_pools, staged=True),
}


@dataclass
class Execution:
    """One pipeline run: summed wall time over its processes, peak RSS."""
    seconds: float
    rss_mb: float
    problems: list
    digests: dict
    f_measure: dict
    trace_files: list

    @property
    def ok(self):
        return not self.problems


class Bench:
    def __init__(self, deadline, log):
        self.deadline = deadline
        self.log = log
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in BLAS_VARS:
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, argv, stdout=None):
        """Run argv to its end; (exit code, wall seconds, peak RSS in MB, stdout)."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stderr=self.log,
                                stdout=subprocess.PIPE if stdout else subprocess.DEVNULL)
        try:
            # wait4 gives this child's own peak RSS; poll so the deadline holds
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > self.deadline:
                    proc.kill()
                time.sleep(0.001)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out = proc.stdout.read().decode() if stdout else ""
        if proc.stdout:
            proc.stdout.close()
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, out

    def execute(self, commands, config, out, baseline=None, trace_dir=None):
        """Run `forumflux <command>` for each command in turn, then check outputs."""
        shutil.rmtree(out, ignore_errors=True)
        seconds, rss, problems, trace_files = 0.0, 0.0, [], []
        for i, command in enumerate(commands):
            argv = ["-m", "forumflux.cli"]
            if trace_dir is not None:
                trace_files.append(trace_dir / f"{i}-{command}.json")
                argv = [str(HERE / "spans.py"), str(trace_files[-1]), str(os.getpid()), "--"]
            code, s, r, _ = self.spawn(argv + ["--config", str(config), "--out", str(out),
                                               "--quiet", command])
            seconds += s
            rss = max(rss, r)
            if code != 0:
                problems.append(f"forumflux {command} exited {code}")
                break
        problems += [f"missing artifact {a}" for a in ARTIFACTS if not (out / a).is_file()]
        f_measure, digests = {}, {}
        if not problems:
            problems += check_report(out)
            f_measure = {p: json.loads((out / "reports" / f"{p}.json").read_text("utf-8"))
                         ["metrics"]["f_measure"]["mean"] for p in PRESETS}
            digests = tree_digests(out)
            if baseline is not None and digests != baseline:
                changed = sorted(k for k in digests.keys() | baseline.keys()
                                 if digests.get(k) != baseline.get(k))
                problems.append(f"artifacts differ from the first run: {changed}")
        return Execution(seconds, rss, problems, digests, f_measure, trace_files)


def check_report(out):
    rows = (out / "report_table.txt").read_text("utf-8").splitlines()[1:]
    if len(rows) != len(PRESETS):
        return [f"report_table.txt has {len(rows)} preset rows, expected {len(PRESETS)}"]
    problems = []
    for row in rows:
        try:
            f = float(row.split()[-1])
        except (IndexError, ValueError):
            problems.append(f"unparseable report row {row!r}")
            continue
        if not 0.0 <= f <= 1.0:
            problems.append(f"F outside [0, 1] in report row {row!r}")
    return problems


def tree_digests(out):
    """sha256 of every file under out, by relative path."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def tree_digest(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def layer_metrics(dumps, n_posts, artifact_bytes, traced_s, untraced_s):
    """Per-layer metrics from the span dumps of one traced pipeline run."""
    total, own, calls, sizes, windows = Counter(), Counter(), Counter(), Counter(), {}
    for dump in dumps:
        for (name, start, end, _), self_s in zip(dump["spans"], self_times(dump["spans"])):
            total[name] += end - start
            own[name] += self_s
        calls.update(dump["calls"])
        sizes.update(dump["sizes"])
        windows.update(dump["windows"])

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {
        "ingest.posts_parsed_per_post": per(sizes["ingest.posts_parsed"], n_posts),
        "graph.build_graph.calls_per_window": per(calls["graph.build_graph"], len(windows)),
        "graph.window_nodes_max": max((n for n, _ in windows.values()), default=0),
        "graph.edges_total": sum(e for _, e in windows.values()),
        "kernels.ns_per_source_edge": per(own["kernels.centrality_csr"],
                                          sizes["kernels.source_edge_visits"], 1e9),
        "lexifeat.ns_per_token": per(own["lexifeat.text_measures"], sizes["lexifeat.tokens"], 1e9),
        "model.ns_per_row_epoch": per(own["model.train"], sizes["model.train_row_epochs"], 1e9),
        "cli.artifact_bytes": artifact_bytes,
        "tracing_overhead_s": traced_s - untraced_s,
    }
    for name in PER_LAYER:
        if name in m:
            continue
        if name.startswith("cli.stage."):
            span = name.rsplit(".", 1)[0]
            m[name] = own[span] if name.endswith(".self_s") else total[span]
        elif name.endswith(".self_s"):
            m[name] = own[name[:-len(".self_s")]]
        elif name.endswith(".calls"):
            m[name] = calls[name[:-len(".calls")]]
        else:
            m[name] = sizes[name]
    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    stage_s = sum(total[f"cli.stage.{s}"] for s in RUN_STAGES)
    summary = {
        "layer_self_s": dict(layer_self),
        "stage_coverage_of_cli_main": per(stage_s, total["cli.main"]),
        "cli_main_outside_stages_s": total["cli.main"] - stage_s,
        "traced_processes": len(dumps),
        "stage_coverage_of_wall": per(stage_s, traced_s),
    }
    return m, summary


def measure(workload, seed, seconds, trace, work):
    """One benchmark invocation; returns (result, record)."""
    started = time.perf_counter()
    work.mkdir(parents=True)
    with open(work / "children.log", "wb") as log:
        bench = Bench(started + INVOCATION_LIMIT_S, log)
        data, n_posts = workload.corpus(seed)
        corpus = work / "corpus.jsonl"
        corpus.write_bytes(data)
        config = work / "pipeline.cfg"
        config.write_text("\n".join([f"input = {corpus}", "format = jsonl", f"seed = {seed}",
                                     *workload.config]) + "\n", encoding="utf-8")

        probe = [str(HERE / "probe.py"), str(config)]
        code, _, _, out = bench.spawn(probe, stdout=True)  # warm-up: bytecode caches
        if code != 0:
            raise RuntimeError("set-up probe failed; see the child log above")
        probe_info = json.loads(out)
        setup = []

        commands = RUN_STAGES if workload.staged else ["run"]
        out_dir = work / "out"
        executions = []
        baseline = None
        if workload.staged:
            executions.append(bench.execute(["run"], config, out_dir))
            baseline = executions[0].digests or None
        samples = []
        loop_start = time.perf_counter()
        while len(samples) < 2 or time.perf_counter() - loop_start < seconds:
            samples.append(bench.execute(commands, config, out_dir, baseline))
            baseline = baseline or samples[-1].digests or None
            for _ in range(SETUP_PROBES_PER_RUN):
                code, probe_s, _, _ = bench.spawn(probe)
                if code != 0:
                    raise RuntimeError("set-up probe failed; see the child log above")
                setup.append(probe_s)
        executions += samples
        traced = None
        if trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            traced = bench.execute(commands, config, out_dir, baseline, trace_dir)
            executions.append(traced)
    reported = [s for s in samples if s.ok]
    if not reported:
        raise RuntimeError("no run passed its checks: "
                           + "; ".join(p for e in executions for p in e.problems))
    run_s = statistics.median(s.seconds for s in reported)
    failed = sum(not e.ok for e in executions)
    record = {
        "seed": seed, "seconds": seconds, "trace": trace,
        "posts": n_posts,
        "env": {
            "python": platform.python_version(),
            "numpy": probe_info["numpy"],
            "numba_importable": find_spec("numba") is not None,
            "centrality_backend": probe_info["backend"],
            "FORUMFLUX_NO_NUMBA": os.environ.get("FORUMFLUX_NO_NUMBA", ""),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "forumflux": probe_info["module"],
        },
        "attempted": len(executions),
        "failed": failed,
        "failed_ratio": failed / len(executions),
        "problems": [p for e in executions for p in e.problems],
        "run_s": {"median": run_s, "samples": [s.seconds for s in samples],
                  "max": max(s.seconds for s in samples)},
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "artifact_digest": tree_digest(reported[0].digests),
        "artifacts": reported[0].digests,
    }
    if trace:
        if not traced.ok:
            raise RuntimeError("traced run failed: " + "; ".join(traced.problems))
        dumps = [json.loads(p.read_text("utf-8")) for p in traced.trace_files]
        artifact_bytes = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
        metrics, summary = layer_metrics(dumps, n_posts, artifact_bytes, traced.seconds, run_s)
        record["traced_run_s"] = traced.seconds
        record.update(summary)
        units = PER_LAYER
    else:
        metrics = {
            "run_s": run_s,
            "posts_per_s": n_posts / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s.rss_mb for s in reported),
            **{f"f_measure.{p}": reported[0].f_measure[p] for p in PRESETS},
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "forumflux" / "cli.py").is_file():
        print(f"error: no forumflux sources under {ROOT / 'src'}; "
              "run from the root of a forumflux checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work)
    except RuntimeError as exc:
        log = work / "children.log"
        if log.is_file():
            sys.stderr.write(log.read_text("utf-8", "replace")[-4000:])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    record["workload"] = args.workload
    print(f"workload {args.workload}  seed {args.seed}  posts {record['posts']}  "
          f"runs {len(record['run_s']['samples'])}  attempted {record['attempted']}  "
          f"failed {record['failed']}  failed_ratio {record['failed_ratio']:.3f}")
    print(f"run_s median {record['run_s']['median']:.4f} s, p100 {record['run_s']['max']:.4f} s, "
          f"n = {len(record['run_s']['samples'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6f} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
