"""In-memory spans around forumflux's layer functions, and their self times.

Run as a script, it executes one forumflux command with the shims installed
and writes the spans and counters as JSON when the command ends:

    python3 pipebench/spans.py SPANS.json RUN_ID -- <forumflux arguments>

A span is (name, start, end, parent index); the spans of one pipeline run
share its run id, across processes too. Per-pair and per-epoch functions
get count-only wrappers, so tracing adds no timer calls to the hot loops.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.calls = Counter()   # wrapper name -> calls
        self.sizes = Counter()   # summed work counts, e.g. tokens
        self.windows = {}        # snapshot index -> [nodes, edges]

    def spanned(self, fn, name, on_result=None):
        """Wrap fn so that every call records a span named name."""
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def counted(self, fn, name, on_result=None):
        """Wrap fn so that calls are only counted: no clock reads."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def dump(self):
        return {"run_id": self.run_id, "spans": self.spans, "calls": dict(self.calls),
                "sizes": dict(self.sizes), "windows": self.windows}


def install(tracer):
    """Replace layer functions where forumflux's callers resolve them."""
    from forumflux import _kernels, cli, community, evolution, featureset, graph, ingest
    from forumflux import lexifeat, model

    span, count, sizes = tracer.spanned, tracer.counted, tracer.sizes

    def add(key, n):
        sizes[key] += n

    def window_graph(args, g):
        tracer.windows[g.snapshot_index] = [len(g.nodes), len(g.edges)]

    ingest.parse_posts = span(ingest.parse_posts, "ingest.parse_posts",
                              lambda a, r: add("ingest.posts_parsed", len(r)))
    ingest.corpus_stats = span(ingest.corpus_stats, "ingest.corpus_stats")
    ingest.serialize_posts = span(ingest.serialize_posts, "ingest.serialize_posts")
    graph.build_graph = span(graph.build_graph, "graph.build_graph", window_graph)
    graph.edges_csv = span(graph.edges_csv, "graph.edges_csv")
    _kernels.centrality_csr = span(
        _kernels.centrality_csr, "kernels.centrality_csr",
        lambda a, r: add("kernels.source_edge_visits", (len(a[0]) - 1) * len(a[1])))
    community.detect_communities = span(community.detect_communities,
                                        "community.detect_communities")
    community.propinquity = count(community.propinquity, "community.propinquity")
    community.modularity = span(community.modularity, "community.modularity")
    community.communities_csv = span(community.communities_csv, "community.communities_csv")
    evolution.label_all = span(evolution.label_all, "evolution.label_all",
                               lambda a, r: add("evolution.labels", len(r)))
    lexifeat.tokenize = count(lexifeat.tokenize, "lexifeat.tokenize",
                              lambda a, r: add("lexifeat.tokens", len(r)))
    # featureset binds text_measures by name at import
    featureset.text_measures = lexifeat.text_measures = span(
        lexifeat.text_measures, "lexifeat.text_measures")
    init = featureset.FeatureContext.__init__
    featureset.FeatureContext.__init__ = span(init, "featureset.FeatureContext")
    featureset.assemble_features = span(featureset.assemble_features,
                                        "featureset.assemble_features")
    featureset.dataset_csv = span(featureset.dataset_csv, "featureset.dataset_csv")
    model.monte_carlo_cv = span(model.monte_carlo_cv, "model.monte_carlo_cv")
    model.train = span(model.train, "model.train")
    model.loss_and_gradient = count(model.loss_and_gradient, "model.loss_and_gradient",
                                    lambda a, r: add("model.train_row_epochs", a[2].shape[0]))
    for name in cli._RUN_ORDER:
        cli._STAGES[name] = span(cli._STAGES[name], f"cli.stage.{name}")


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def main(argv):
    out, run_id, sep, *forumflux_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json RUN_ID -- <forumflux arguments>")
    tracer = Tracer(run_id)
    install(tracer)
    from forumflux import cli
    code = tracer.spanned(cli.main, "cli.main")(forumflux_argv)
    Path(out).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
