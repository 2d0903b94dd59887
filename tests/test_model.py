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


def full_mask(d=N_FEATURES):
    return np.ones(d, dtype=bool)


def separable_data(rng, n=200, d=N_FEATURES):
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = (X @ w_true > 0).astype(np.float64)
    return X, y


def reference_train(X, y, mask, hyper=Hyper()):
    """One mask at a time, loss checked every epoch: the trainer before the
    masks were stacked into one weight matrix. Returns (weights, bias)."""
    Xm = X * mask
    w = np.zeros(X.shape[1])
    b = 0.0
    for epoch in range(hyper.epochs):
        loss, grad_w, grad_b = loss_and_gradient(w, b, Xm, y, hyper.l2_lambda)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged to {loss} at epoch {epoch}")
        w = w - hyper.learning_rate * grad_w
        b = b - hyper.learning_rate * grad_b
    return w * mask, b


def random_masks(rng, k, d=N_FEATURES):
    masks = rng.random((k, d)) < rng.uniform(0.2, 0.9)
    masks[0] = True
    return list(masks)


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
        m = train(X, y, [full_mask(1)])[0]
        assert m.predict(X).tolist() == [0, 1]

    def test_large_l2_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, n=100)
        m = train(X, y, [full_mask()], hyper=Hyper(learning_rate=0.001, l2_lambda=1e5))[0]
        assert np.all(np.abs(m.weights) < 1e-2)
        proba = m.predict_proba(X)
        assert np.all(np.abs(proba - 0.5) < 0.1)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train(np.ones((3, 2)), np.ones(3), [full_mask(2)])

    def test_divergence_detected(self):
        X = np.array([[1e300], [-1e300]])
        y = np.array([1.0, 0.0])
        with pytest.raises(TrainingError):
            train(X, y, [full_mask(1)], hyper=Hyper(learning_rate=1e280, epochs=5))

    def test_masked_weights_stay_zero(self):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[::2] = False
        m = train(X, y, [mask])[0]
        assert np.all(m.weights[~mask] == 0.0)

    def test_mask_equals_physical_reduction(self):
        rng = np.random.default_rng(4)
        X, y = separable_data(rng, n=80)
        mask = full_mask()
        mask[[0, 5, 17]] = False
        masked = train(X, y, [mask])[0]
        reduced = train(X[:, mask], y, [full_mask(int(mask.sum()))])[0]
        p1 = masked.predict_proba(X)
        p2 = reduced.predict_proba(X[:, mask])
        assert np.max(np.abs(p1 - p2)) < 1e-12


class TestStackedTrain:
    """The masks of one call train as the rows of one weight matrix; each row
    must be the model that training its mask alone gives."""

    def test_rows_match_reference_through_cv(self, monkeypatch):
        calls = []
        real_train = model.train

        def recording_train(X, y, masks, hyper):
            models = real_train(X, y, masks, hyper)
            calls.append((X, y, masks, hyper, models))
            return models

        monkeypatch.setattr(model, "train", recording_train)
        rng = np.random.default_rng(11)
        for balance in (False, True):
            X, y = separable_data(rng, n=int(rng.integers(40, 120)))
            X += rng.normal(scale=2.0, size=X.shape)
            y[: len(y) // 3] = 0.0  # imbalanced, so balance drops rows
            presets = [AblationPreset(f"p{i}", mask)
                       for i, mask in enumerate(random_masks(rng, 5))]
            hyper = Hyper(learning_rate=float(rng.uniform(0.05, 0.5)), epochs=60,
                          l2_lambda=float(rng.uniform(0, 0.1)))
            monte_carlo_cv(X, y, presets, repeats=3, hyper=hyper, seed=3, balance=balance)
        assert len(calls) == 6
        for X, y, masks, hyper, models in calls:
            np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)  # z-scored train rows
            np.testing.assert_allclose(X.std(axis=0), 1.0, rtol=1e-12)
            assert len(models) == len(masks)
            for mask, fitted in zip(masks, models):
                w, b = reference_train(X, y, mask, hyper)
                np.testing.assert_allclose(fitted.weights, w, rtol=1e-12, atol=1e-15)
                assert fitted.bias == pytest.approx(b, rel=1e-12, abs=1e-15)
                assert np.array_equal(fitted.feature_mask, mask)

    def test_each_report_equals_its_single_preset_run(self):
        rng = np.random.default_rng(12)
        X, y = separable_data(rng, n=150)
        X += rng.normal(scale=3.0, size=X.shape)  # predictions near 0.5
        presets = table2_presets()
        for balance in (False, True):
            together = monte_carlo_cv(X, y, presets, repeats=4, seed=5, balance=balance)
            assert [r.model_name for r in together] == [p.name for p in presets]
            for preset, report in zip(presets, together):
                assert report == monte_carlo_cv(X, y, [preset], repeats=4, seed=5,
                                                balance=balance)[0]

    def test_masked_weights_exactly_zero_in_every_row(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X, y = separable_data(rng, n=80)
            masks = random_masks(rng, int(rng.integers(2, 8)))
            for mask, fitted in zip(masks, train(X, y, masks, Hyper(epochs=50))):
                assert np.all(fitted.weights[~mask] == 0.0)
                assert np.all(np.isfinite(fitted.weights))

    def test_one_diverging_row_raises(self):
        X = np.array([[1e300, 1e-300], [-1e300, -1e-300]])
        y = np.array([1.0, 0.0])
        hyper = Hyper(learning_rate=1e280, epochs=5, l2_lambda=0.0)
        calm = np.array([False, True])
        assert np.isfinite(train(X, y, [calm], hyper)[0].weights).all()
        with pytest.raises(TrainingError):
            train(X, y, [calm, ~calm], hyper)

    def test_loss_computed_once_per_fit_not_per_epoch(self, monkeypatch):
        calls = []
        real = model.loss_and_gradient
        monkeypatch.setattr(model, "loss_and_gradient",
                            lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(14)
        X, y = separable_data(rng, n=50)
        train(X, y, random_masks(rng, 3), Hyper(epochs=40))
        assert len(calls) == 3

    def test_non_finite_final_loss_raises(self, monkeypatch):
        monkeypatch.setattr(model, "loss_and_gradient",
                            lambda w, b, X, y, lam: (float("nan"), w, b))
        X, y = separable_data(np.random.default_rng(15), n=30)
        with pytest.raises(TrainingError):
            train(X, y, [full_mask()], Hyper(epochs=3))


class TestEvaluate:
    def test_perfect_predictions(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0.0, 1.0])
        m = train(X, y, [full_mask(1)])[0]
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
        report = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=1, seed=0)[0]
        assert report.precision == report.recall == report.f_measure == 1.0

    def test_same_seed_identical_reports(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        a = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=5, seed=42)[0]
        b = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=5, seed=42)[0]
        assert a == b

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(6)
        X, y = separable_data(rng, n=120)
        X += rng.normal(scale=2.0, size=X.shape)
        a = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=3, seed=1)[0]
        b = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=3, seed=2)[0]
        assert a != b

    def test_balance_downsample_runs(self):
        rng = np.random.default_rng(8)
        X, y = separable_data(rng, n=150)
        report = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=3, seed=0, balance=True)[0]
        assert 0.0 <= report.f_measure <= 1.0

    def test_scaling_a_feature_before_zscore_changes_nothing(self):
        rng = np.random.default_rng(9)
        X, y = separable_data(rng, n=100)
        scaled = X.copy()
        scaled[:, 3] *= 1000.0
        a = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=3, seed=0)[0]
        b = monte_carlo_cv(scaled, y, [table2_presets()[0]], repeats=3, seed=0)[0]
        assert a.f_measure == pytest.approx(b.f_measure, abs=1e-12)

    def test_invalid_args(self):
        X, y = separable_data(np.random.default_rng(0), n=20)
        with pytest.raises(ConfigError):
            monte_carlo_cv(X, y, [table2_presets()[0]], repeats=0)
        with pytest.raises(ConfigError):
            monte_carlo_cv(X, y, [table2_presets()[0]], train_fraction=1.5)


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
    report = monte_carlo_cv(X, y, [table2_presets()[0]], repeats=2, seed=0)[0]
    payload = json.loads(report_json(report))
    assert payload["model_name"] == "M1: all features"
    assert report_from_json(report_json(report)) == report
    assert payload["metrics"]["f_measure"]["mean"] == report.f_measure
    table = report_table([report])
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Precision", "Recall", "F-measure"]
    assert "M1: all features" in lines[1]
