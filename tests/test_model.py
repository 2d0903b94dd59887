import json

import numpy as np
import pytest

from forumflux import model
from forumflux.errors import ConfigError, TrainingError
from forumflux.featureset import FEATURE_NAMES, N_FEATURES
from forumflux.model import (AblationPreset, Hyper, evaluate, loss_and_gradient,
                             monte_carlo_cv, normalize_apply, normalize_fit,
                             report_from_json, report_json, report_table, table2_presets,
                             train)


def full_mask():
    return np.ones(N_FEATURES, dtype=bool)


def separable_data(rng, n=200, d=N_FEATURES):
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (X @ w_true > 0).astype(np.float64)
    return X, y


class TestNormalization:
    def test_constant_column_centered(self):
        X = np.full((3, 1), 4.0)
        stats = normalize_fit(X)
        assert stats.std[0] == 1.0
        assert np.all(normalize_apply(stats, X) == 0.0)

    def test_population_std(self):
        X = np.array([[1.0], [3.0]])
        stats = normalize_fit(X)
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0
        assert normalize_apply(stats, X).ravel().tolist() == [-1.0, 1.0]

    def test_apply_to_unseen_row(self):
        stats = normalize_fit(np.array([[1.0], [3.0]]))
        assert normalize_apply(stats, np.array([[5.0]]))[0, 0] == 3.0

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            normalize_fit(np.empty((0, 3)))


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
        hyper = Hyper(learning_rate=0.01, epochs=200)
        w = np.zeros(N_FEATURES)
        b = 0.0
        losses = []
        for _ in range(hyper.epochs):
            loss, gw, gb = loss_and_gradient(w, b, X, y, hyper.l2_lambda)
            losses.append(loss)
            w -= hyper.learning_rate * gw
            b -= hyper.learning_rate * gb
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTrain:
    def test_zero_weights_predict_half(self):
        m = model.LogisticModel(weights=np.zeros(2), bias=0.0,
                                feature_mask=np.ones(2, bool), hyper=Hyper())
        assert m.predict_proba(np.array([[5.0, -3.0]]))[0] == 0.5

    def test_one_dimensional_separable(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        m = train(X, y)
        assert m.predict(X).tolist() == [0, 1]

    def test_large_l2_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, n=100)
        m = train(X, y, hyper=Hyper(learning_rate=0.001, l2_lambda=1e5))
        assert np.all(np.abs(m.weights) < 1e-2)
        proba = m.predict_proba(X)
        assert np.all(np.abs(proba - 0.5) < 0.1)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train(np.ones((3, 2)), np.ones(3))

    def test_divergence_detected(self):
        X = np.array([[1e300], [-1e300]])
        y = np.array([1.0, 0.0])
        with pytest.raises(TrainingError):
            train(X, y, hyper=Hyper(learning_rate=1e280, epochs=5))

    def test_masked_weights_stay_zero(self):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[::2] = False
        m = train(X, y, mask=mask)
        assert np.all(m.weights[~mask] == 0.0)

    def test_mask_equals_physical_reduction(self):
        rng = np.random.default_rng(4)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[[0, 5, 17]] = False
        masked = train(X, y, mask=mask)
        reduced = train(X[:, mask], y)
        p1 = masked.predict_proba(X)
        p2 = reduced.predict_proba(X[:, mask])
        assert np.max(np.abs(p1 - p2)) < 1e-12


class TestEvaluate:
    def test_perfect_predictions(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0.0, 1.0])
        m = train(X, y)
        metrics = evaluate(m, X, y)
        assert metrics["precision"] == metrics["recall"] == metrics["f_measure"] == 1.0

    def test_all_negative_predictions(self):
        m = model.LogisticModel(weights=np.zeros(1), bias=-10.0,
                                feature_mask=np.ones(1, bool), hyper=Hyper())
        metrics = evaluate(m, np.ones((4, 1)), np.array([1.0, 1.0, 0.0, 0.0]))
        assert metrics["precision"] == 0.0
        assert metrics["recall"] == 0.0
        assert metrics["f_measure"] == 0.0

    def test_confusion_matrix_identities(self):
        # TP=2, FP=1, FN=2 fixture
        m = model.LogisticModel(weights=np.array([10.0]), bias=0.0,
                                feature_mask=np.ones(1, bool), hyper=Hyper())
        X = np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        metrics = evaluate(m, X, y)
        assert metrics["precision"] == pytest.approx(2 / 3)
        assert metrics["recall"] == pytest.approx(0.5)
        assert metrics["f_measure"] == pytest.approx(4 / 7)
        assert metrics["accuracy"] == pytest.approx(3 / 6)


class TestMonteCarloCV:
    def test_perfectly_separable_single_repeat(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(-5, 0.1, size=(30, N_FEATURES)),
                       rng.normal(5, 0.1, size=(30, N_FEATURES))])
        y = np.array([0.0] * 30 + [1.0] * 30)
        report = monte_carlo_cv(X, y, table2_presets()[0], repeats=1, seed=0)
        assert report.precision == report.recall == report.f_measure == 1.0

    def test_same_seed_identical_reports(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        a = monte_carlo_cv(X, y, table2_presets()[0], repeats=5, seed=42)
        b = monte_carlo_cv(X, y, table2_presets()[0], repeats=5, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        X += rng.normal(scale=2.0, size=X.shape)
        a = monte_carlo_cv(X, y, table2_presets()[0], repeats=3, seed=1)
        b = monte_carlo_cv(X, y, table2_presets()[0], repeats=3, seed=2)
        assert a != b

    def test_balance_downsample_runs(self):
        rng = np.random.default_rng(8)
        X, y = separable_data(rng, n=150)
        report = monte_carlo_cv(X, y, table2_presets()[0], repeats=3, seed=0, balance=True)
        assert 0.0 <= report.f_measure <= 1.0

    def test_scaling_a_feature_before_zscore_changes_nothing(self):
        rng = np.random.default_rng(9)
        X, y = separable_data(rng, n=100)
        scaled = X.copy()
        scaled[:, 3] *= 1000.0
        a = monte_carlo_cv(X, y, table2_presets()[0], repeats=3, seed=0)
        b = monte_carlo_cv(scaled, y, table2_presets()[0], repeats=3, seed=0)
        assert a.f_measure == pytest.approx(b.f_measure, abs=1e-12)

    def test_invalid_args(self):
        X, y = separable_data(np.random.default_rng(0), n=20)
        with pytest.raises(ConfigError):
            monte_carlo_cv(X, y, table2_presets()[0], repeats=0)
        with pytest.raises(ConfigError):
            monte_carlo_cv(X, y, table2_presets()[0], train_fraction=1.5)


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
    report = monte_carlo_cv(X, y, table2_presets()[0], repeats=2, seed=0)
    payload = json.loads(report_json(report))
    assert payload["model_name"] == "M1: all features"
    assert report_from_json(report_json(report)) == report
    assert payload["metrics"]["f_measure"]["mean"] == report.f_measure
    table = report_table([report])
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Precision", "Recall", "F-measure"]
    assert "M1: all features" in lines[1]
