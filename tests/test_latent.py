import math

import numpy as np
import pytest

from imdp.autodiff import Graph, ParamStore, forward, grad_check
from imdp.autodiff import _softmax_rows as softmax
from imdp.latent import LatentSpec, build_codes, mi_lower_bound, sample_codes, uniform_cont


class TestLatentSpec:
    def test_input_width_arithmetic(self):
        spec = LatentSpec(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),))
        assert spec.input_width == 73

    def test_entropies(self):
        spec = LatentSpec(z_dim=4, categorical=(10, 4), continuous=((-1.0, 1.0), (0.0, 4.0)))
        assert spec.cat_entropy() == pytest.approx(math.log(10) + math.log(4))
        assert spec.cont_entropy() == pytest.approx(math.log(2.0) + math.log(4.0))

    @pytest.mark.parametrize("fields", [("x", "", ""), ("4", "10,", ""), ("4", "", "5"),
                                        ("4", "", "-1:1:2"), ("4", "", "1:-1")])
    def test_parse_rejects_malformed_fields(self, fields):
        with pytest.raises(ValueError):
            LatentSpec.parse(*fields)

    @pytest.mark.parametrize("kwargs", [
        dict(z_dim=0),
        dict(z_dim=2, categorical=(1,)),
        dict(z_dim=2, continuous=((1.0, -1.0),)),
        dict(z_dim=2, continuous=((-np.inf, np.inf),)),
        dict(z_dim=2, continuous=((0.0, np.inf),)),
        dict(z_dim=2, continuous=((-1e308, 1e308),)),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LatentSpec(**kwargs)


class TestSampleCodes:
    SPEC = LatentSpec(z_dim=6, categorical=(10,), continuous=((-1.0, 1.0),))

    def test_one_hot_rows(self):
        codes = sample_codes(self.SPEC, 256, np.random.default_rng(0))
        oh = codes.cat_onehot[0]
        assert oh.shape == (256, 10)
        assert (oh.sum(axis=1) == 1.0).all()
        assert np.isin(oh, (0.0, 1.0)).all()

    def test_category_frequencies_uniform(self):
        codes = sample_codes(self.SPEC, 100000, np.random.default_rng(1))
        freqs = codes.cat_onehot[0].mean(axis=0)
        assert np.abs(freqs - 0.1).max() < 0.005

    def test_continuous_mean_near_zero(self):
        codes = sample_codes(self.SPEC, 100000, np.random.default_rng(2))
        assert abs(codes.cont[:, 0].mean()) < 0.01
        assert codes.cont.min() >= -1.0 and codes.cont.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = sample_codes(self.SPEC, 32, np.random.default_rng(3))
        b = sample_codes(self.SPEC, 32, np.random.default_rng(3))
        assert a.concat().tobytes() == b.concat().tobytes()

    def test_concat_width_and_order(self):
        codes = sample_codes(self.SPEC, 8, np.random.default_rng(4))
        full = codes.concat()
        assert full.shape == (8, self.SPEC.input_width)
        np.testing.assert_array_equal(full[:, :6], codes.z)
        np.testing.assert_array_equal(full[:, 6:16], codes.cat_onehot[0])
        np.testing.assert_array_equal(full[:, 16:], codes.cont)

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            sample_codes(self.SPEC, 0, np.random.default_rng(0))

    def test_draws_follow_the_builder_in_spec_order(self):
        spec = LatentSpec(z_dim=3, categorical=(4, 2), continuous=((-1.0, 1.0), (0.0, 5.0)))
        codes = sample_codes(spec, 64, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        z = rng.standard_normal((64, 3))
        ids = [rng.integers(0, 4, size=64), rng.integers(0, 2, size=64)]
        want = build_codes(spec, z, ids, uniform_cont(spec, 64, rng))
        assert codes.concat().tobytes() == want.concat().tobytes()


class TestBuildCodes:
    SPEC = LatentSpec(z_dim=2, categorical=(4, 3), continuous=((-1.0, 1.0),))

    def test_exact_one_hot_rows_from_ids(self):
        z = np.arange(10.0).reshape(5, 2)
        cont = np.full((5, 1), 0.25)
        codes = build_codes(self.SPEC, z, [np.array([0, 3, 1, 2, 3]), 2], cont)
        np.testing.assert_array_equal(codes.cat_onehot[0], np.eye(4)[[0, 3, 1, 2, 3]])
        np.testing.assert_array_equal(codes.cat_onehot[1], np.eye(3)[[2] * 5])
        assert all(oh.dtype == np.float64 for oh in codes.cat_onehot)
        assert codes.z is z and codes.cont is cont

    def test_one_id_entry_per_categorical_code(self):
        with pytest.raises(ValueError):
            build_codes(self.SPEC, np.zeros((2, 2)), [0], None)

    def test_uniform_cont_columns_in_range(self):
        spec = LatentSpec(z_dim=1, categorical=(), continuous=((-1.0, 1.0), (2.0, 5.0)))
        cont = uniform_cont(spec, 1000, np.random.default_rng(1))
        assert cont.shape == (1000, 2)
        assert cont[:, 0].min() >= -1.0 and cont[:, 0].max() <= 1.0
        assert cont[:, 1].min() >= 2.0 and cont[:, 1].max() <= 5.0
        assert uniform_cont(LatentSpec(z_dim=1, continuous=()), 4,
                            np.random.default_rng(1)) is None


def build_mi_graph(batch, k=10, n_cont=0):
    spec = LatentSpec(z_dim=2, categorical=(k,),
                      continuous=tuple(((-1.0, 1.0),) * n_cont))
    g = Graph()
    logits = g.input("logits", (batch, k))
    cat_t = g.input("cat_t", (batch, k))
    cont_means = cont_t = None
    if n_cont:
        cont_means = g.input("means", (batch, n_cont))
        cont_t = g.input("cont_t", (batch, n_cont))
    mi = mi_lower_bound(g, spec, [logits], [cat_t], cont_means, cont_t)
    return g, mi, spec


class TestMiLowerBound:
    def test_delta_posterior_reaches_log_k(self):
        g, mi, _ = build_mi_graph(batch=4)
        onehot = np.zeros((4, 10))
        onehot[np.arange(4), [1, 5, 0, 9]] = 1.0
        acts = forward(g, ParamStore({}), {"logits": 1000.0 * onehot, "cat_t": onehot})
        assert float(acts[mi.cat]) == math.log(10)

    def test_uniform_posterior_scores_zero(self):
        g, mi, _ = build_mi_graph(batch=4)
        onehot = np.zeros((4, 10))
        onehot[:, 3] = 1.0
        acts = forward(g, ParamStore({}), {"logits": np.zeros((4, 10)), "cat_t": onehot})
        assert float(acts[mi.cat]) == 0.0

    def test_matches_per_row_enumeration(self):
        rng = np.random.default_rng(5)
        batch, k, n_cont = 64, 10, 2
        g, mi, spec = build_mi_graph(batch=batch, k=k, n_cont=n_cont)
        logits = rng.normal(0.0, 2.0, size=(batch, k))
        idx = rng.integers(0, k, size=batch)
        onehot = np.zeros((batch, k))
        onehot[np.arange(batch), idx] = 1.0
        means = rng.normal(size=(batch, n_cont))
        targets = rng.uniform(-1.0, 1.0, size=(batch, n_cont))
        acts = forward(g, ParamStore({}), {"logits": logits, "cat_t": onehot,
                                         "means": means, "cont_t": targets})
        # brute-force per-row expectation with plain python floats
        cat_sum = 0.0
        for i in range(batch):
            row = [math.exp(v) for v in logits[i]]
            log_p = math.log(row[idx[i]] / sum(row))
            cat_sum += log_p
        want_cat = math.log(k) + cat_sum / batch
        cont_sum = 0.0
        for i in range(batch):
            for j in range(n_cont):
                d = targets[i, j] - means[i, j]
                cont_sum += -0.5 * math.log(2 * math.pi) - 0.5 * d * d
        want_cont = n_cont * math.log(2.0) + cont_sum / batch
        assert float(acts[mi.cat]) == pytest.approx(want_cat, abs=1e-9)
        assert float(acts[mi.cont]) == pytest.approx(want_cont, abs=1e-9)
        assert float(acts[mi.total]) == pytest.approx(want_cat + want_cont, abs=1e-9)

    def test_categorical_term_bounded_by_log_k(self):
        rng = np.random.default_rng(6)
        g, mi, _ = build_mi_graph(batch=32)
        for trial in range(20):
            logits = rng.normal(0.0, 3.0, size=(32, 10))
            onehot = np.zeros((32, 10))
            onehot[np.arange(32), rng.integers(0, 10, 32)] = 1.0
            acts = forward(g, ParamStore({}), {"logits": logits, "cat_t": onehot})
            assert float(acts[mi.cat]) <= math.log(10) + 1e-12

    def test_invariant_to_row_permutation(self):
        rng = np.random.default_rng(7)
        g, mi, _ = build_mi_graph(batch=16)
        logits = rng.normal(size=(16, 10))
        onehot = np.zeros((16, 10))
        onehot[np.arange(16), rng.integers(0, 10, 16)] = 1.0
        a = forward(g, ParamStore({}), {"logits": logits, "cat_t": onehot})[mi.total]
        perm = rng.permutation(16)
        b = forward(g, ParamStore({}), {"logits": logits[perm], "cat_t": onehot[perm]})[mi.total]
        assert float(a) == pytest.approx(float(b), abs=1e-12)

    def test_gradients_pass_finite_difference_check(self):
        rng = np.random.default_rng(8)
        spec = LatentSpec(z_dim=2, categorical=(5,), continuous=((-1.0, 1.0),))
        g = Graph()
        store = ParamStore({"w": rng.normal(0.0, 0.5, size=(3, 5)), "b": np.zeros(5),
                            "wm": rng.normal(0.0, 0.5, size=(3, 1)), "bm": np.zeros(1)})
        x = g.input("x", (6, 3))
        logits = g.affine(x, g.param("w", (3, 5)), g.param("b", (5,)))
        means = g.affine(x, g.param("wm", (3, 1)), g.param("bm", (1,)))
        onehot = np.zeros((6, 5))
        onehot[np.arange(6), rng.integers(0, 5, 6)] = 1.0
        mi = mi_lower_bound(g, spec, [logits], [g.input("cat0", (6, 5))], means,
                            g.input("cont", (6, 1)))
        loss = g.weighted_sum([(mi.total, -1.0)])
        inputs = {"cat0": onehot, "cont": rng.uniform(-1, 1, size=(6, 1)),
                  "x": rng.normal(size=(6, 3))}
        assert grad_check(g, store, inputs, loss, h=1e-5) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        probs = softmax(rng.normal(0.0, 5.0, size=(40, 10)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
