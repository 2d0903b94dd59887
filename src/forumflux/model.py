"""Normalization, logistic regression, Monte Carlo CV, and ablation presets.

Each fit minimizes the L2-regularized mean negative log-likelihood by Newton's
method from zero initialization until it has converged, so a trained model is
the minimum, a pure function of its inputs; l2_lambda > 0 makes it unique. A
preset's mask selects the columns its fit solves for, so a masked weight stays
exactly 0, and the loss is computed once per fit, at the end. The presets of a
CV repeat share its split and normalization: each repeat trains one weight
matrix, a row per preset, on its training rows, and scores it on its test rows.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, TrainingError
from .featureset import FEATURE_NAMES, N_FEATURES

_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}
_METRICS = ("precision", "recall", "f_measure", "train_accuracy")  # each with a mean and a std


@dataclass(frozen=True)
class Hyper:
    epochs: int = 500        # the most Newton steps a fit may take
    l2_lambda: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.l2_lambda <= 0:
            raise ConfigError("l2_lambda must be positive")


@dataclass(frozen=True)
class AblationPreset:
    key: str                 # its report is reports/<key>.json
    name: str
    feature_mask: np.ndarray


def normalize_fit(X):
    """Per-feature (mean, std), population, of a training split; a zero-variance
    column gets std 1, so (X - mean) / std only centers it."""
    std = X.std(axis=0)
    return X.mean(axis=0), np.where(std == 0.0, 1.0, std)


def loss_and_gradient(weights, bias, X, y, l2_lambda):
    """Regularized mean NLL and its gradient (bias unregularized)."""
    m = X.shape[0]
    z = X @ weights + bias
    p = 1.0 / (1.0 + np.exp(-z))
    eps = 1e-12
    nll = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    loss = nll + (l2_lambda / (2.0 * m)) * np.dot(weights, weights)
    err = p - y
    grad_w = X.T @ err / m + (l2_lambda / m) * weights
    grad_b = float(err.mean())
    return loss, grad_w, grad_b


def train(X, y, masks, hyper=Hyper()):
    """Newton's method from zero init for each mask on one training set, X of shape
    (m, d) and y of shape (m,). Returns the weights W, of shape (k, d) for k masks,
    and the biases b, of shape (k,). A fit solves for the columns of its mask and a
    bias, and steps until none of them moves by 1e-10 or more; a fit still moving
    after hyper.epochs steps raises TrainingError."""
    M = np.array(masks, dtype=bool)
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos == 0 or neg == 0:
        raise TrainingError(f"need both classes to train, got {pos} positive / {neg} negative")
    lam = hyper.l2_lambda
    W = np.zeros(M.shape)
    b = np.zeros(len(M))
    with np.errstate(over="ignore"):  # exp overflows to inf where p is 0
        for j, mask in enumerate(M):
            A = np.c_[X[:, mask], np.ones(len(X))]  # the fit's columns, then the bias's
            l2 = np.r_[np.full(A.shape[1] - 1, lam), 0.0]
            theta = np.zeros(A.shape[1])
            for _ in range(hyper.epochs):
                p = 1.0 / (1.0 + np.exp(-(A @ theta)))
                try:  # m times the Hessian, and m times the gradient
                    step = np.linalg.solve((A.T * (p * (1.0 - p))) @ A + np.diag(l2),
                                           A.T @ (p - y) + l2 * theta)
                except np.linalg.LinAlgError:  # p (1 - p) is 0 on every row, and lam too small
                    raise TrainingError(f"a Hessian is singular at l2_lambda = {lam}; "
                                        "raise l2_lambda") from None
                theta -= step
                if np.abs(step).max() < 1e-10:
                    break
            else:
                raise TrainingError(f"a fit did not converge within epochs = {hyper.epochs} "
                                    "Newton steps; raise epochs or l2_lambda")
            W[j, mask], b[j] = theta[:-1], theta[-1]
        losses = [loss_and_gradient(w, bias, X, y, lam)[0] for w, bias in zip(W, b)]
    if not np.isfinite(losses).all():
        raise TrainingError(f"final losses {losses} are not all finite")
    return W, b


def _ratio(num, den):
    """num / den, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _score(W, b, X, y):
    """Precision, recall, F and accuracy, each of shape (k,), of the predictions
    1 / (1 + exp(-z)) >= 0.5 of the fits W (k, d), b (k,) on the rows X (n, d)
    with 0/1 labels y (n,); a zero denominator gives 0."""
    pred = 1.0 / (1.0 + np.exp(-(W @ X.T + b[:, None]))) >= 0.5
    pos = y == 1
    tp = (pred & pos).sum(axis=-1)
    precision = _ratio(tp, pred.sum(axis=-1))
    recall = _ratio(tp, pos.sum())
    f_measure = _ratio(2 * precision * recall, precision + recall)
    return precision, recall, f_measure, (pred == pos).sum(axis=-1) / len(y)


def _stratified_split(y, train_fraction, rng):
    train_idx = []
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        k = int(round(train_fraction * len(members)))
        k = min(max(k, 1), len(members) - 1)
        train_idx.extend(members[:k])
        test_idx.extend(members[k:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def _downsample_majority(idx, y, rng):
    pos, neg = idx[y[idx] == 1], idx[y[idx] == 0]
    small, large = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    keep = rng.choice(len(large), size=len(small), replace=False)
    return np.sort(np.concatenate([small, large[keep]]))


def _draw_splits(y, repeats, train_fraction, seed, balance):
    """Per repeat, its (train indices, test indices), drawn from a generator
    seeded by (seed, repeat index) alone.

    Both splits hold both classes: the stratified split puts 1..n-1 members
    of each class in train, and downsampling keeps min of them from each.
    """
    splits = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, rep])
        train_idx, test_idx = _stratified_split(y, train_fraction, rng)
        if balance:
            train_idx = _downsample_majority(train_idx, y, rng)
        splits.append((train_idx, test_idx))
    return splits


def monte_carlo_cv(X, y, presets, repeats=20, train_fraction=0.7, hyper=Hyper(),
                   seed=0, balance=False):
    """Repeated stratified random splits; per preset, the report that stage_train writes
    as reports/<key>.json: {"model_name", "repeats", "train_accuracy": {"mean", "std"},
    "metrics": {"precision", "recall", "f_measure": {"mean", "std"}}}.

    repeats >= 1 and 0 < train_fraction < 1, as load_config checks. Each repeat derives its own
    generator from (seed, repeat index), so the reports are identical under any evaluation
    order, and all presets share each repeat's split and normalization. Every split holds both
    classes on its first draw.
    """
    if (y == 1).sum() < 2 or (y == 0).sum() < 2:
        raise TrainingError("each class needs at least 2 examples for CV")
    masks = [p.feature_mask for p in presets]
    scores = []
    for train_idx, test_idx in _draw_splits(y, repeats, train_fraction, seed, balance):
        X_train, y_train = X[train_idx], y[train_idx]
        mean, std = normalize_fit(X_train)
        X_train = (X_train - mean) / std
        W, b = train(X_train, y_train, masks, hyper)
        accuracy = _score(W, b, X_train, y_train)[3]
        test = _score(W, b, (X[test_idx] - mean) / std, y[test_idx])
        scores.append((*test[:3], accuracy))
    scores = [np.array(metric) for metric in zip(*scores)]  # each (repeats, presets)
    reports = []
    for j, preset in enumerate(presets):
        # one column at a time: a sum over axis 0 adds in another order
        metrics = {key: {"mean": float(np.mean(values[:, j])), "std": float(np.std(values[:, j]))}
                   for key, values in zip(_METRICS, scores)}
        reports.append({"model_name": preset.name, "repeats": repeats,
                        "train_accuracy": metrics.pop("train_accuracy"), "metrics": metrics})
    return reports


def _mask(excluded):
    mask = np.ones(N_FEATURES, dtype=bool)
    for name in excluded:
        mask[_IDX[name]] = False
    return mask


_TEXT_CURRENT = ["sentiment", "cognition", "intent"]
_TEXT_HISTORY = ["avg_sentiment_before", "avg_cognition_before", "avg_intent_before",
                 "last_sentiment", "last_cognition", "last_intent"]


def table2_presets():
    """The five ablation presets: all features, two text ablations, and two
    structure ablations."""
    return [
        AblationPreset("m1", "M1: all features", _mask([])),
        AblationPreset("m2", "M2: M1 without current sentiment, cognition, intent",
                       _mask(_TEXT_CURRENT)),
        AblationPreset("m3", "M3: M1 without any sentiment, cognition, intent",
                       _mask(_TEXT_CURRENT + _TEXT_HISTORY)),
        AblationPreset("m1_no_modularity", "M1 without modularity", _mask(["modularity"])),
        AblationPreset("m3_no_avg_centrality", "M3 without avgconnectiveness and avgbetweenness",
                       _mask(_TEXT_CURRENT + _TEXT_HISTORY
                             + ["avg_connectiveness", "avg_betweenness"])),
    ]


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
    for name in _METRICS:
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
