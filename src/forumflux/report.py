"""The five ablation presets, and the reports of their fits as JSON and as a table.

A preset is a row (key, name, excluded feature names): its report is
reports/<key>.json, and `model.table2_presets` turns the excluded names into a
column mask. `report` reads the reports back with `report_from_json` and writes
`report_table`. Nothing here imports numpy, so a `report` process starts without it.
"""

from __future__ import annotations

import io
import json

from .errors import ParseError

METRICS = ("precision", "recall", "f_measure", "train_accuracy")  # each with a mean and a std

_TEXT_CURRENT = ("sentiment", "cognition", "intent")
_TEXT_HISTORY = ("avg_sentiment_before", "avg_cognition_before", "avg_intent_before",
                 "last_sentiment", "last_cognition", "last_intent")

# all features, two text ablations, and two structure ablations
PRESETS = (
    ("m1", "M1: all features", ()),
    ("m2", "M2: M1 without current sentiment, cognition, intent", _TEXT_CURRENT),
    ("m3", "M3: M1 without any sentiment, cognition, intent", _TEXT_CURRENT + _TEXT_HISTORY),
    ("m1_no_modularity", "M1 without modularity", ("modularity",)),
    ("m3_no_avg_centrality", "M3 without avgconnectiveness and avgbetweenness",
     _TEXT_CURRENT + _TEXT_HISTORY + ("avg_connectiveness", "avg_betweenness")),
)


def report_from_json(fh):
    """The report of monte_carlo_cv, from the JSON file that stage_train wrote. A
    model_name that is not a string, a repeats that is not an integer >= 1, or a
    metric mean or std that is not a number in [0, 1] is a ParseError."""
    report = json.load(fh)
    stats = dict(report["metrics"], train_accuracy=report["train_accuracy"])
    if not isinstance(report["model_name"], str):
        raise ParseError("model_name must be a string")
    if type(report["repeats"]) is not int or report["repeats"] < 1:
        raise ParseError(f"repeats must be an integer >= 1, got {report['repeats']!r:.40}")
    for name in METRICS:
        for key in ("mean", "std"):
            value = stats[name][key]
            if type(value) not in (int, float) or not 0 <= value <= 1:  # NaN fails too
                raise ParseError(f"metric {name!r} {key} must be a number in [0, 1], "
                                 f"got {value!r:.40}")
    return report


def report_table(reports):
    """Plain-text table with Model / Precision / Recall / F-measure columns."""
    buf = io.StringIO()
    name_width = max(len("Model"), max((len(r["model_name"]) for r in reports), default=0))
    buf.write(f"{'Model':<{name_width}}  {'Precision':>9}  {'Recall':>9}  {'F-measure':>9}\n")
    for r in reports:
        m = r["metrics"]
        buf.write(f"{r['model_name']:<{name_width}}  {m['precision']['mean']:>9.4f}  "
                  f"{m['recall']['mean']:>9.4f}  {m['f_measure']['mean']:>9.4f}\n")
    return buf.getvalue()
