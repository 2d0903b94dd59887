import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from forumflux import model
from forumflux.cli import Hyper
from forumflux.errors import ConfigError, ParseError, TrainingError
from forumflux.featureset import FEATURE_NAMES, N_FEATURES
from forumflux.model import (AblationPreset, loss_and_gradient, monte_carlo_cv, normalize_fit,
                             table2_presets, train)
from forumflux.report import report_from_json, report_table


def full_mask(d=N_FEATURES):
    return np.ones(d, dtype=bool)


def separable_data(rng, n=200, d=N_FEATURES):
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (X @ w_true > 0).astype(np.float64)
    return X, y


def reference_train(X, y, mask, hyper=Hyper()):
    """One fit alone, on the columns of its mask alone: Newton's method on the
    bias-augmented rows, to a step below 1e-13. Returns (weights, bias), the
    weights of the masked columns 0."""
    A = np.c_[X[:, mask], np.ones(len(X))]
    l2 = np.r_[np.full(int(mask.sum()), hyper.l2_lambda), 0.0]
    theta = np.zeros(A.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(A @ theta)))
        H = A.T @ (A * (p * (1.0 - p))[:, None]) + np.diag(l2)
        step = np.linalg.solve(H, A.T @ (p - y) + l2 * theta)
        theta -= step
        if np.abs(step).max() < 1e-13:
            break
    w = np.zeros(X.shape[1])
    w[mask] = theta[:-1]
    return w, theta[-1]


def proba(w, bias, X):
    """P(y = 1) of the rows of X under one fitted (weights, bias)."""
    return 1.0 / (1.0 + np.exp(-(X @ w + bias)))


def evaluate(w, bias, X, y):
    """One fit's precision/recall/F/accuracy at threshold 0.5, zero-denominator
    safe: the reference that model._score must equal for each row of its fits."""
    pred = (proba(w, bias, X) >= 0.5).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f_measure = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (tp + tn) / len(y)
    return {"precision": precision, "recall": recall,
            "f_measure": f_measure, "accuracy": accuracy}


def random_masks(rng, k, d=N_FEATURES):
    masks = rng.random((k, d)) < rng.uniform(0.2, 0.9)
    masks[0] = True
    return list(masks)


class TestNormalization:
    def test_constant_column_centered(self):
        X = np.full((3, 1), 4.0)
        mean, std = normalize_fit(X)
        assert std[0] == 1.0
        assert np.all((X - mean) / std == 0.0)

    def test_population_std(self):
        X = np.array([[1.0], [3.0]])
        mean, std = normalize_fit(X)
        assert mean[0] == 2.0
        assert std[0] == 1.0
        assert ((X - mean) / std).ravel().tolist() == [-1.0, 1.0]

    def test_apply_to_unseen_row(self):
        mean, std = normalize_fit(np.array([[1.0], [3.0]]))
        assert ((np.array([[5.0]]) - mean) / std)[0, 0] == 3.0


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        step = 1e-5
        for _ in range(50):
            m = int(rng.integers(2, 21))
            X = rng.normal(size=(m, N_FEATURES))
            y = rng.integers(0, 2, size=m).astype(np.float64)
            w = rng.normal(scale=0.5, size=N_FEATURES)
            b = float(rng.normal(scale=0.5))
            lam = float(rng.uniform(0, 0.1))
            _, grad_w, grad_b = loss_and_gradient(w, b, X, y, lam)
            for j in range(N_FEATURES):
                e = np.zeros(N_FEATURES)
                e[j] = step
                lp, _, _ = loss_and_gradient(w + e, b, X, y, lam)
                lm, _, _ = loss_and_gradient(w - e, b, X, y, lam)
                fd = (lp - lm) / (2 * step)
                assert grad_w[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            lp, _, _ = loss_and_gradient(w, b + step, X, y, lam)
            lm, _, _ = loss_and_gradient(w, b - step, X, y, lam)
            assert grad_b == pytest.approx((lp - lm) / (2 * step), rel=1e-6, abs=1e-9)

    def test_loss_non_increasing_at_small_lr(self):
        rng = np.random.default_rng(1)
        X, y = separable_data(rng, n=60)
        X += rng.normal(scale=0.5, size=X.shape)  # make it noisy
        w = np.zeros(N_FEATURES)
        b = 0.0
        losses = []
        for _ in range(200):
            loss, gw, gb = loss_and_gradient(w, b, X, y, 0.01)
            losses.append(loss)
            w -= 0.01 * gw
            b -= 0.01 * gb
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTrain:
    def test_one_dimensional_separable(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        W, b = train(X, y, [full_mask(1)], Hyper())
        assert (proba(W[0], b[0], X) >= 0.5).tolist() == [False, True]

    def test_large_l2_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, n=100)
        W, b = train(X, y, [full_mask()], Hyper(l2_lambda=1e5))
        assert np.all(np.abs(W) < 1e-2)
        assert np.all(np.abs(proba(W[0], b[0], X) - 0.5) < 0.1)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train(np.ones((3, 2)), np.ones(3), [full_mask(2)], Hyper())

    def test_a_fit_that_has_not_converged_by_the_step_cap_raises(self):
        rng = np.random.default_rng(19)
        X, y = separable_data(rng, n=60)
        with pytest.raises(TrainingError, match=r"within epochs = 1 Newton steps"):
            train(X, y, [full_mask()], Hyper(epochs=1))
        # separable rows: the smaller l2_lambda, the larger the weights and the more steps
        with pytest.raises(TrainingError, match=r"within epochs = 500 Newton steps"):
            train(X, y, [full_mask()], Hyper(l2_lambda=1e-12))
        with pytest.raises(TrainingError, match=r"a Hessian is singular at l2_lambda = 1e-100"):
            train(X, y, [full_mask()], Hyper(l2_lambda=1e-100))
        W, _ = train(X, y, [full_mask()], Hyper(l2_lambda=1e-6))
        assert np.abs(W).max() > 10.0

    @pytest.mark.parametrize("fields", [{"epochs": 0}, {"l2_lambda": 0.0},
                                        {"l2_lambda": -1.0}])
    def test_out_of_range_hyper_is_a_config_error(self, fields):
        with pytest.raises(ConfigError):
            Hyper(**fields)

    def test_masked_weights_stay_zero(self):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[::2] = False
        W, _ = train(X, y, [mask], Hyper())
        assert np.all(W[0, ~mask] == 0.0)

    def test_mask_equals_physical_reduction(self):
        rng = np.random.default_rng(4)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[[0, 5, 17]] = False
        W, b = train(X, y, [mask], Hyper())
        W_reduced, b_reduced = train(X[:, mask], y, [full_mask(int(mask.sum()))], Hyper())
        p1 = proba(W[0], b[0], X)
        p2 = proba(W_reduced[0], b_reduced[0], X[:, mask])
        assert np.max(np.abs(p1 - p2)) < 1e-12


class TestOptimum:
    """Every fit is the minimum of its regularized loss, not where a stopping rule
    left it."""

    def test_fits_match_scipy_with_a_zero_gradient_and_zero_masked_weights(self):
        rng = np.random.default_rng(21)
        for _ in range(12):  # z-scored rows and noisy labels, as monte_carlo_cv trains on
            n = int(rng.integers(30, 160))
            X = rng.normal(size=(n, N_FEATURES)) * rng.uniform(0.1, 10.0, size=N_FEATURES)
            y = (X @ rng.normal(size=N_FEATURES) + rng.normal(scale=3.0, size=n) > 0) * 1.0
            y[:2] = [0.0, 1.0]
            mean, std = normalize_fit(X)
            X = (X - mean) / std
            masks, lam = random_masks(rng, 3), float(10.0 ** rng.uniform(-4, 1))
            W, b = train(X, y, masks, Hyper(l2_lambda=lam))
            for mask, w, bias in zip(masks, W, b):
                assert np.all(w[~mask] == 0.0)
                _, grad_w, grad_b = loss_and_gradient(w[mask], bias, X[:, mask], y, lam)
                assert max(np.abs(grad_w).max(), abs(grad_b)) < 1e-8

                def loss(theta):
                    value, gw, gb = loss_and_gradient(theta[:-1], theta[-1], X[:, mask], y, lam)
                    return value, np.r_[gw, gb]

                fit = minimize(loss, np.zeros(int(mask.sum()) + 1), jac=True, method="BFGS",
                               options={"gtol": 1e-10})
                np.testing.assert_allclose(np.r_[w[mask], bias], fit.x, rtol=0, atol=1e-6)

    def test_long_gradient_descent_approaches_the_newton_fit(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(80, N_FEATURES))
        y = (X[:, 0] + rng.normal(scale=1.5, size=80) > 0).astype(np.float64)
        W, b = train(X, y, [full_mask()], Hyper())
        newton = np.r_[W[0], b[0]]
        w, bias, gaps = np.zeros(N_FEATURES), 0.0, []
        for epoch in range(1, 20001):
            _, grad_w, grad_b = loss_and_gradient(w, bias, X, y, Hyper().l2_lambda)
            w -= 0.1 * grad_w
            bias -= 0.1 * grad_b
            if epoch in (500, 2000, 5000, 20000):
                gaps.append(np.abs(np.r_[w, bias] - newton).max())
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[0] > 0.1 and gaps[-1] < 1e-9  # 500 epochs stop short; 20,000 arrive


class TestStackedTrain:
    """The masks of one call train as the rows of one weight matrix; each row
    must be the fit that training its mask on the set alone gives."""

    def test_rows_match_reference_through_cv(self, monkeypatch):
        calls = []
        real_train = model.train

        def recording_train(X, y, masks, hyper):
            fitted = real_train(X, y, masks, hyper)
            calls.append((X, y, masks, hyper, fitted))
            return fitted

        monkeypatch.setattr(model, "train", recording_train)
        rng = np.random.default_rng(11)
        for balance in (False, True):
            X, y = separable_data(rng, n=int(rng.integers(40, 120)))
            X += rng.normal(scale=2.0, size=X.shape)
            y[: len(y) // 3] = 0.0  # imbalanced, so balance drops rows
            presets = [AblationPreset(f"p{i}", f"p{i}", mask)
                       for i, mask in enumerate(random_masks(rng, 5))]
            hyper = Hyper(epochs=60, l2_lambda=float(10.0 ** rng.uniform(-4, 1)))
            monte_carlo_cv(X, y, presets, hyper, repeats=3, seed=3, balance=balance)
        assert len(calls) == 6  # one call per repeat
        for X, y, masks, hyper, (W, b) in calls:
            assert X.shape == (len(y), N_FEATURES)
            assert W.shape == (len(masks), N_FEATURES) and b.shape == (len(masks),)
            np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)  # z-scored rows
            np.testing.assert_allclose(X.std(axis=0), 1.0, rtol=1e-12)
            for mask, w_fit, b_fit in zip(masks, W, b):
                w, bias = reference_train(X, y, mask, hyper)
                np.testing.assert_allclose(w_fit, w, rtol=1e-10, atol=1e-10)
                assert b_fit == pytest.approx(bias, rel=1e-10, abs=1e-10)

    def test_each_report_equals_its_single_preset_run(self):
        rng = np.random.default_rng(12)
        X, y = separable_data(rng, n=150)
        X += rng.normal(scale=3.0, size=X.shape)  # predictions near 0.5
        presets = table2_presets()
        for balance in (False, True):
            together = monte_carlo_cv(X, y, presets, Hyper(), repeats=4, seed=5, balance=balance)
            assert [r["model_name"] for r in together] == [p.name for p in presets]
            for preset, report in zip(presets, together):
                assert report == monte_carlo_cv(X, y, [preset], Hyper(), repeats=4, seed=5,
                                                balance=balance)[0]

    def test_masked_weights_exactly_zero_in_every_row(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X, y = separable_data(rng, n=80)
            masks = random_masks(rng, int(rng.integers(2, 8)))
            W, _ = train(X, y, masks, Hyper(epochs=50))
            for mask, w in zip(masks, W):
                assert np.all(w[~mask] == 0.0)
                assert np.all(np.isfinite(w))

    def test_loss_computed_once_per_fit_not_per_epoch(self, monkeypatch):
        calls = []
        real = model.loss_and_gradient
        monkeypatch.setattr(model, "loss_and_gradient",
                            lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(14)
        X, y = separable_data(rng, n=50)
        train(X, y, random_masks(rng, 3), Hyper(epochs=40))
        assert len(calls) == 3
        assert all(X_set is X and y_set is y for _, _, X_set, y_set, _ in calls)

    def test_non_finite_final_loss_raises(self, monkeypatch):
        monkeypatch.setattr(model, "loss_and_gradient",
                            lambda w, b, X, y, lam: (float("nan"), w, b))
        X, y = separable_data(np.random.default_rng(15), n=30)
        with pytest.raises(TrainingError, match="final losses"):
            train(X, y, [full_mask()], Hyper())


labels = st.lists(st.sampled_from([0.0, 1.0]), min_size=4, max_size=60).filter(
    lambda v: 2 <= sum(v) <= len(v) - 2)


@settings(max_examples=80, deadline=None)
@given(labels, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**32 - 1), st.booleans())
def test_every_split_holds_both_classes_and_one_train_size(y, train_fraction, seed, balance):
    """Every split monte_carlo_cv draws holds both classes in train and in test, so
    each fit and score sees both, and every repeat trains on the same number of rows."""
    y = np.array(y)
    splits, balanced, fitted = [], [], []

    def recorded(results, draw):
        def call(*args):
            results.append(draw(*args))
            return results[-1]
        return call

    def fit(X, y_train, masks, hyper):
        fitted.append(y_train)
        return np.zeros((len(masks), X.shape[1])), np.zeros(len(masks))

    with (mock.patch.object(model, "_stratified_split",
                            side_effect=recorded(splits, model._stratified_split)),
          mock.patch.object(model, "_downsample_majority",
                            side_effect=recorded(balanced, model._downsample_majority)),
          mock.patch.object(model, "train", side_effect=fit)):
        monte_carlo_cv(np.zeros((len(y), 1)), y, [AblationPreset("all", "all", full_mask(1))],
                       Hyper(), repeats=6, train_fraction=train_fraction, seed=seed,
                       balance=balance)
    trained = balanced if balance else [train_idx for train_idx, _ in splits]
    assert len(splits) == len(trained) == len(fitted) == 6
    for train_idx, (_, test_idx), y_train in zip(trained, splits, fitted):
        assert np.array_equal(y_train, y[train_idx])
        assert set(y[train_idx]) == {0.0, 1.0}
        assert set(y[test_idx]) == {0.0, 1.0}
        assert not set(train_idx) & set(test_idx)
    assert len({len(train_idx) for train_idx in trained}) == 1


def score_one(w, bias, X, y):
    """model._score of a single fit: (precision, recall, F, accuracy)."""
    return tuple(float(v[0]) for v in model._score(w[None], np.array([bias]), X, y))


class TestScore:
    def test_perfect_predictions(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0.0, 1.0])
        W, b = train(X, y, [full_mask(1)], Hyper())
        assert score_one(W[0], b[0], X, y) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictions(self):
        metrics = score_one(np.zeros(1), -10.0, np.ones((4, 1)), np.array([1.0, 1.0, 0.0, 0.0]))
        assert metrics == (0.0, 0.0, 0.0, 0.5)

    def test_confusion_matrix_identities(self):
        # TP=2, FP=1, FN=2 fixture
        X = np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        precision, recall, f_measure, accuracy = score_one(np.array([10.0]), 0.0, X, y)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(0.5)
        assert f_measure == pytest.approx(4 / 7)
        assert accuracy == pytest.approx(3 / 6)

    def test_score_equals_per_fit_reference_exactly(self):
        rng = np.random.default_rng(20)
        for _ in range(80):
            k, n, d = (int(v) for v in rng.integers([2, 2, 1], [7, 40, 6]))
            W = rng.normal(size=(k, d)) * (rng.random((k, 1)) < 0.7)  # some rows all 0
            b = rng.normal(size=k)
            W[:2] = 0.0
            b[0] = -50.0  # row 0 predicts no positive: precision 0 by the zero rule
            b[1] = 0.0    # row 1 has P exactly 0.5 on every row: all positive
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float64)
            scored = model._score(W, b, X, y)
            assert all(v.shape == (k,) for v in scored)
            for j in range(k):
                ref = evaluate(W[j], b[j], X, y)
                assert [v[j] for v in scored] == [
                    ref["precision"], ref["recall"], ref["f_measure"], ref["accuracy"]]
            assert scored[0][0] == 0.0
            assert scored[1][1] == (1.0 if y.any() else 0.0)  # recall 0 with no positive
            assert scored[3][1] == y.mean()


class TestMonteCarloCV:
    def test_perfectly_separable_single_repeat(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(-5, 0.1, size=(30, N_FEATURES)),
                       rng.normal(5, 0.1, size=(30, N_FEATURES))])
        y = np.array([0.0] * 30 + [1.0] * 30)
        report = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=1, seed=0)[0]
        assert [report["metrics"][key]["mean"] for key in ("precision", "recall", "f_measure")] \
            == [1.0, 1.0, 1.0]

    def test_same_seed_identical_reports(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        a = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=5, seed=42)[0]
        b = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=5, seed=42)[0]
        assert a == b

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        X += rng.normal(scale=2.0, size=X.shape)
        a = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=3, seed=1)[0]
        b = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=3, seed=2)[0]
        assert a != b

    def test_balance_downsample_runs(self):
        rng = np.random.default_rng(8)
        X, y = separable_data(rng, n=150)
        report = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=3, seed=0,
                                balance=True)[0]
        assert 0.0 <= report["metrics"]["f_measure"]["mean"] <= 1.0

    def test_scaling_a_feature_before_zscore_changes_nothing(self):
        rng = np.random.default_rng(9)
        X, y = separable_data(rng, n=100)
        scaled = X.copy()
        scaled[:, 3] *= 1000.0
        a = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=3, seed=0)[0]
        b = monte_carlo_cv(scaled, y, [table2_presets()[0]], Hyper(), repeats=3, seed=0)[0]
        assert a["metrics"]["f_measure"]["mean"] == pytest.approx(
            b["metrics"]["f_measure"]["mean"], abs=1e-12)


class TestPresets:
    def test_five_presets_with_expected_masks(self):
        presets = table2_presets()
        assert len(presets) == 5
        active = [int(p.feature_mask.sum()) for p in presets]
        assert active == [18, 15, 9, 17, 7]

    def test_m2_drops_current_text(self):
        m2 = table2_presets()[1]
        dropped = {FEATURE_NAMES[i] for i in range(N_FEATURES) if not m2.feature_mask[i]}
        assert dropped == {"sentiment", "cognition", "intent"}

    def test_m3_drops_all_text(self):
        m3 = table2_presets()[2]
        dropped = {FEATURE_NAMES[i] for i in range(N_FEATURES) if not m3.feature_mask[i]}
        assert dropped == {"sentiment", "cognition", "intent",
                           "avg_sentiment_before", "avg_cognition_before",
                           "avg_intent_before", "last_sentiment", "last_cognition",
                           "last_intent"}


def test_report_serialization_round_trip():
    rng = np.random.default_rng(10)
    X, y = separable_data(rng, n=80)
    report = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=2, seed=0)[0]
    assert report_from_json(io.StringIO(json.dumps(report))) == report
    assert report.keys() == {"model_name", "repeats", "train_accuracy", "metrics"}
    assert report["model_name"] == "M1: all features" and report["repeats"] == 2
    assert report["metrics"].keys() == {"precision", "recall", "f_measure"}
    assert all(stat.keys() == {"mean", "std"}
               for stat in [report["train_accuracy"], *report["metrics"].values()])
    table = report_table([report])
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Precision", "Recall", "F-measure"]
    assert "M1: all features" in lines[1]
    assert lines[1].split()[-1] == f'{report["metrics"]["f_measure"]["mean"]:.4f}'


@pytest.mark.parametrize("edit", [
    lambda r: r["metrics"]["f_measure"].update(mean=float("nan")),
    lambda r: r["train_accuracy"].update(std=float("inf")),
    lambda r: r["metrics"]["recall"].update(std="0.1"),
    lambda r: r.update(repeats="many"),
    lambda r: r.update(repeats=True),
    lambda r: r.update(repeats=0),
    lambda r: r.update(model_name=None),
    lambda r: r["metrics"]["f_measure"].update(mean=7.5),
    lambda r: r["metrics"]["recall"].update(std=-1.0),
    lambda r: r["train_accuracy"].update(mean=1.0000001),
], ids=["nan mean", "inf std", "std a string", "repeats a string", "repeats a bool",
        "repeats 0", "name None", "mean above 1", "std below 0", "mean just above 1"])
def test_report_from_json_rejects_bad_values(edit):
    rng = np.random.default_rng(10)
    X, y = separable_data(rng, n=80)
    report = monte_carlo_cv(X, y, [table2_presets()[0]], Hyper(), repeats=2, seed=0)[0]
    edit(report)
    with pytest.raises(ParseError):
        report_from_json(io.StringIO(json.dumps(report)))
