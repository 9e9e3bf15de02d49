import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from imdp import evaluation
from imdp.data import Dataset, synth_mixture
from imdp.evaluation import (Classifier, CurveStats, SweepGrid, UtilityReport,
                             UtilityRow, code_sweep, curve_stats, dataset_sha256,
                             map_categories_to_labels, spearman_rho, timing_overhead,
                             train_binary_classifier, utility_privacy_curve)
from imdp.latent import LatentSpec
from imdp.nets import NetConfig, build_critic, build_generator, load_checkpoint, save_checkpoint
from imdp.privacy import PrivacySpec
from imdp.train import MetricsLog, MetricsRecord, TrainConfig


SPEC = LatentSpec(z_dim=4, categorical=(8,), continuous=((-1.0, 1.0),))


def fresh_models(seed=0, data_dim=2):
    cfg = NetConfig(latent=SPEC, data_dim=data_dim, gen_hidden=(8, 8),
                    trunk_hidden=(16, 16), seed=seed)
    return build_generator(cfg), build_critic(cfg)


def log_from(values):
    log = MetricsLog()
    for i, v in enumerate(values, 1):
        log.append(MetricsRecord(i, 0.0, 0.0, float(v), float(v), 1.0, 0.0))
    return log


class TestCodeSweep:
    def test_grid_shape(self):
        gen, _ = fresh_models()
        grid = code_sweep(gen, seed=0, cont_steps=10)
        assert grid.values.shape == (10, 8, 2)
        assert grid.rows == 10 and grid.cols == 8
        np.testing.assert_allclose(grid.cont_values, np.linspace(-1, 1, 10))

    def test_deterministic(self):
        gen, _ = fresh_models(1)
        a = code_sweep(gen, seed=7, cont_steps=5)
        b = code_sweep(gen, seed=7, cont_steps=5)
        assert a.values.tobytes() == b.values.tobytes()

    def test_minimum_steps_enforced(self):
        gen, _ = fresh_models(3)
        with pytest.raises(ValueError):
            code_sweep(gen, seed=0, cont_steps=1)

    def test_pgm_rendering(self, tmp_path):
        spec = LatentSpec(z_dim=4, categorical=(3,), continuous=((-1.0, 1.0),))
        cfg = NetConfig(latent=spec, data_dim=16, gen_hidden=(8,),
                        trunk_hidden=(8,), seed=4)
        gen = build_generator(cfg)
        grid = code_sweep(gen, seed=0, cont_steps=4)
        path = tmp_path / "sweep.pgm"
        grid.to_pgm(path, img_side=4)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n12 16\n255\n")
        assert len(blob) == len(b"P5\n12 16\n255\n") + 12 * 16

    def test_table_rendering(self):
        gen, _ = fresh_models(5)
        grid = code_sweep(gen, seed=0, cont_steps=3)
        lines = grid.to_table().strip().splitlines()
        assert lines[0] == "category,code_value,x0,x1"
        assert len(lines) == 1 + 3 * 8


class TestBinaryClassifier:
    def blobs(self, n=400, gap=1.0, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        x = np.concatenate([rng.normal(-gap / 2, 0.08, size=(half, 2)),
                            rng.normal(gap / 2, 0.08, size=(half, 2))])
        y = np.concatenate([np.zeros(half, int), np.full(half, 3)])
        return Dataset(x=np.clip(x, -1, 1), y=y)

    def test_separable_blobs_high_accuracy(self):
        ds = self.blobs()
        clf = train_binary_classifier(ds, epochs=60, seed=1)
        assert clf.accuracy(self.blobs(seed=9)) > 0.99

    def test_fewer_rows_than_a_batch_still_train(self):
        ds = self.blobs(n=48)
        assert ds.n < Classifier.BATCH
        clf = train_binary_classifier(ds, epochs=100, seed=1)
        untrained = Classifier(dim=2, labels=(0, 3), seed=1)
        for name, arr in clf.store.params.items():
            assert not np.array_equal(arr, untrained.store.params[name])
        assert clf.accuracy(self.blobs(seed=9)) >= 0.9

    def test_shuffled_labels_are_chance(self):
        ds = self.blobs(n=2000, seed=2)
        rng = np.random.default_rng(3)
        shuffled = Dataset(x=ds.x, y=rng.permutation(ds.y))
        clf = train_binary_classifier(shuffled, epochs=20, seed=4)
        fresh = self.blobs(n=2000, seed=10)
        chance = Dataset(x=fresh.x, y=rng.permutation(fresh.y))
        assert abs(clf.accuracy(chance) - 0.5) < 0.05

    def test_deterministic_given_seed(self):
        ds = self.blobs(seed=5)
        a = train_binary_classifier(ds, epochs=5, seed=6)
        b = train_binary_classifier(ds, epochs=5, seed=6)
        for name in a.store.params:
            assert a.store.params[name].tobytes() == b.store.params[name].tobytes()

    def test_rejects_non_binary_labels(self):
        ds = synth_mixture(k=4, radius=0.75, std=0.05, n=64, seed=0)
        with pytest.raises(ValueError):
            train_binary_classifier(ds, epochs=1, seed=0)

    def test_predictions_use_original_labels(self):
        ds = self.blobs(seed=7)
        clf = train_binary_classifier(ds, epochs=30, seed=8)
        preds = clf.predict(ds.x)
        assert set(np.unique(preds)) <= {0, 3}


class TestCategoryMapping:
    def test_majority_vote_deterministic_tie_break(self):
        from imdp.nets import q_posterior
        _, critic = fresh_models(6)
        # find two points the fresh head assigns to different categories,
        # then vote with one of each: a tie, broken toward the lower id
        rng = np.random.default_rng(1)
        pool = rng.uniform(-1, 1, size=(64, 2))
        cats = q_posterior(critic, pool).cat_logits[0].argmax(axis=1)
        first = pool[cats == cats[0]][0]
        other_mask = cats != cats[0]
        assert other_mask.any()
        second = pool[other_mask][0]
        ds = Dataset(x=np.stack([first, second]), y=np.array([0, 0]))
        mapping, tie = map_categories_to_labels(critic, ds)
        assert tie
        assert mapping[0] == min(int(cats[0]), int(cats[other_mask][0]))

    def test_requires_labels(self):
        _, critic = fresh_models(7)
        with pytest.raises(ValueError):
            map_categories_to_labels(critic, Dataset(x=np.zeros((4, 2))))


class TestUtilityCurve:
    def test_identical_models_identical_accuracies(self):
        gen, critic = fresh_models(8)
        models = {float("inf"): (gen, critic), 5.5: (gen, critic),
                  2.2: (gen, critic), 1.22: (gen, critic)}
        real = synth_mixture(k=8, radius=0.75, std=0.05, n=2000, seed=2)
        map_data = synth_mixture(k=8, radius=0.75, std=0.05, n=800, seed=3)
        report = utility_privacy_curve(models, pair=(0, 4), real_test=real,
                                       map_data=map_data, per_class=50,
                                       epochs=3, seed=9)
        accs = [r.accuracy for r in report.rows]
        assert len(set(accs)) == 1
        assert [r.epsilon for r in report.rows] == [float("inf"), 5.5, 2.2, 1.22]

    def test_per_class_counts(self):
        gen, critic = fresh_models(9)
        real = synth_mixture(k=8, radius=0.75, std=0.05, n=1000, seed=4)
        report = utility_privacy_curve({float("inf"): (gen, critic)}, pair=(1, 2),
                                       real_test=real, map_data=real,
                                       per_class=75, epochs=1, seed=0)
        assert report.rows[0].n_train == 150

    def test_csv_round_trip_fields(self):
        gen, critic = fresh_models(10)
        real = synth_mixture(k=8, radius=0.75, std=0.05, n=1000, seed=5)
        report = utility_privacy_curve({2.2: (gen, critic)}, pair=(0, 1),
                                       real_test=real, map_data=real,
                                       per_class=20, epochs=1, seed=0)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "epsilon,train_source,accuracy,n_train,n_test,mapping_tie"
        assert lines[1].startswith("2.2,generated:eps=2.2,")

    def test_missing_pair_rows_rejected(self):
        gen, critic = fresh_models(11)
        real = synth_mixture(k=4, radius=0.75, std=0.05, n=400, seed=6)
        with pytest.raises(ValueError):
            utility_privacy_curve({1.0: (gen, critic)}, pair=(5, 6),
                                  real_test=real, map_data=real,
                                  per_class=10, epochs=1, seed=0)

    def test_pair_label_missing_from_the_map_split_rejected_before_any_level(self):
        real = synth_mixture(k=4, radius=0.75, std=0.05, n=400, seed=6)
        keep = real.y != 2
        map_data = Dataset(real.x[keep], real.y[keep])

        class Unread(dict):
            def __getitem__(self, eps):
                raise AssertionError("a level ran")

        with pytest.raises(ValueError, match="^map split holds no rows labeled 2$"):
            utility_privacy_curve(Unread({1.0: None}), pair=(1, 2), real_test=real,
                                  map_data=map_data, per_class=10, epochs=1, seed=0)

    def test_peak_holds_one_level_at_a_time(self, tmp_path):
        # two levels of the default 784-dim nets, loaded as evaluate loads them
        spec = LatentSpec(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),))
        paths = {}
        for seed, eps in enumerate((float("inf"), 2.2)):
            cfg = NetConfig(latent=spec, data_dim=784, seed=seed)
            paths[eps] = tmp_path / f"{seed}.ckpt"
            save_checkpoint(paths[eps], build_generator(cfg), build_critic(cfg),
                            PrivacySpec.calibrated(eps, 1e-5, 0.01, 64 / 60000, 5))
        rng = np.random.default_rng(0)
        real, map_data = (Dataset(x=rng.uniform(-1.0, 1.0, size=(n, 784)),
                                  y=rng.integers(0, 10, size=n)) for n in (1000, 200))
        tracemalloc.start()
        try:
            models = {}
            for eps, path in paths.items():
                bundle = load_checkpoint(path)
                models[eps] = (bundle.gen, bundle.critic)
            utility_privacy_curve(models, pair=(3, 8), real_test=real, map_data=map_data,
                                  per_class=128, epochs=4, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 8.2 MiB; 15.6 MiB with a gradient slot per loaded parameter and the
        # first level's 3 MiB training split alive while the second generates
        assert peak < 12 * 2**20

    def test_split_hash_stable(self):
        ds = synth_mixture(k=4, radius=0.75, std=0.05, n=100, seed=7)
        assert dataset_sha256(ds) == dataset_sha256(ds)

    def test_spearman_of_tied_accuracies_is_nan_without_warning(self):
        rows = [UtilityRow(epsilon=eps, train_source="generated", accuracy=0.5,
                           n_train=10, n_test=10, mapping_tie=False)
                for eps in (float("inf"), 2.2)]
        report = UtilityReport(rows=rows, test_split_sha256="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(report.spearman())


class TestSpearmanRho:
    @pytest.mark.parametrize("a,b", [
        ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0], [0.1, 0.4, 0.2, 0.2, 0.9, 0.2]),
        ([float("inf"), 5.5, 2.2, 1.22], [0.9, 0.8, 0.8, 0.6]),
        ([float("inf"), 2.2, float("inf"), 1.22, 2.2], [0.7, 0.7, 0.9, 0.5, 0.6]),
        ([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
    ])
    def test_matches_scipy_on_ties_and_infinities(self, a, b):
        from scipy.stats import spearmanr
        assert spearman_rho(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)

    def test_matches_scipy_on_random_inputs(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            a = rng.integers(0, 6, size=n).astype(float)
            a[rng.random(n) < 0.2] = np.inf
            b = np.round(rng.normal(size=n), 1)
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            assert spearman_rho(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)

    def test_constant_column_is_nan(self):
        assert np.isnan(spearman_rho([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]))
        assert np.isnan(spearman_rho([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]))


def test_cli_import_loads_no_scipy():
    code = ("import sys, imdp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestCurveStats:
    def test_constant_series_zero_variance(self):
        stats = curve_stats(log_from([2.0] * 10), "wdist")
        assert stats.var == 0.0
        assert stats.second_half_var == 0.0

    def test_linear_ramp_halves_ordered(self):
        stats = curve_stats(log_from(np.linspace(0, 1, 20)), "wdist")
        assert stats.first_half_mean < stats.second_half_mean

    def test_window_restricts_view(self):
        stats = curve_stats(log_from([*([5.0] * 90), *([1.0] * 10)]), "l_i",
                            window=10)
        assert stats.mean == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            curve_stats(log_from([1.0]), "nope")

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            curve_stats(MetricsLog(), "wdist")


class TestTimingOverhead:
    def test_requires_finite_epsilon(self):
        cfg = TrainConfig(n_g=1, batch=8, latent=SPEC)
        data = synth_mixture(k=8, radius=0.75, std=0.05, n=64, seed=8)
        with pytest.raises(ValueError):
            timing_overhead(cfg, data)

    def test_reports_both_paths(self):
        cfg = TrainConfig(n_g=3, batch=16, epsilon=1.22, latent=SPEC,
                          gen_hidden=(8,), trunk_hidden=(8,))
        data = synth_mixture(k=8, radius=0.75, std=0.05, n=128, seed=9)
        report = timing_overhead(cfg, data)
        assert report.private_ms > 0.0
        assert report.nonprivate_ms > 0.0
        assert report.ratio == report.private_ms / report.nonprivate_ms

    @pytest.mark.parametrize("n_g,sizes", [(0, [0]), (3, [1, 1, 1]), (7, [2, 2, 1, 1, 1]),
                                           (12, [3, 3, 2, 2, 2]), (250, [50] * 5)])
    def test_sides_alternate_in_near_equal_segments(self, monkeypatch, n_g, sizes):
        calls = []

        def fake_train(config, data):
            calls.append((config.epsilon, config.n_g))
            return SimpleNamespace(wall_seconds=1.0 if config.epsilon == 1.22 else 0.25)

        monkeypatch.setattr(evaluation, "train", fake_train)
        cfg = TrainConfig(n_g=n_g, batch=16, epsilon=1.22, latent=SPEC)
        report = timing_overhead(cfg, synth_mixture(k=8, radius=0.75, std=0.05, n=64, seed=9))
        want = []
        for i, size in enumerate(sizes):
            pair = [(1.22, size), (float("inf"), size)]
            want += pair if i % 2 == 0 else pair[::-1]
        assert calls == want
        assert sum(size for _, size in calls) == 2 * n_g
        assert report.private_ms == len(sizes) * 1e3
        assert report.nonprivate_ms == len(sizes) * 250.0
