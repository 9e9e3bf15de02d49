import platform
import subprocess
import sys

import numpy as np
import pytest

from imdp import privacy
from imdp import train as train_module
from imdp.autodiff import Graph, NonFiniteError, ParamStore, backward, forward
from imdp.data import Dataset, batch_iter, synth_mixture
from imdp.latent import LatentSpec, sample_codes
from imdp.nets import (build_critic, build_generator, generate, load_checkpoint, NetConfig,
                       param_shapes, save_checkpoint)
from imdp.train import (MetricsLog, MetricsRecord, RMSProp, TrainConfig,
                        build_trainer, critic_loss, derive_seeds,
                        generator_loss, mi_objective, train,
                        _build_gen_graph)
from imdp.latent import mi_lower_bound

SPEC = LatentSpec(z_dim=4, categorical=(4,), continuous=((-1.0, 1.0),))


def small_config(**overrides):
    base = dict(n_g=5, batch=16, seed=1, latent=SPEC, c_p=0.1,
                lr_critic=2e-4, lr_gen=1e-3,
                gen_hidden=(8, 8), trunk_hidden=(16, 16))
    base.update(overrides)
    return TrainConfig(**base)


def mixture(n=256, seed=11):
    return synth_mixture(k=4, radius=0.75, std=0.1, n=n, seed=seed)


class TestCriticLoss:
    def build(self, real, fake):
        g = Graph()
        r = g.input("r", real.shape)
        f = g.input("f", fake.shape)
        loss = critic_loss(g, r, f)
        acts = forward(g, ParamStore({}), {"r": real, "f": fake})
        return float(acts[loss])

    def test_identical_scores_give_zero(self):
        scores = np.random.default_rng(0).normal(size=(8, 1))
        assert self.build(scores, scores) == 0.0

    def test_unit_gap_arithmetic(self):
        real = np.ones((4, 1))
        fake = np.zeros((4, 1))
        assert self.build(real, fake) == -1.0

    def test_linear_in_score_scale(self):
        rng = np.random.default_rng(1)
        real, fake = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        assert self.build(2 * real, 2 * fake) == pytest.approx(2 * self.build(real, fake))

    def test_rejects_mismatched_batches(self):
        g = Graph()
        r = g.input("r", (4, 1))
        f = g.input("f", (5, 1))
        with pytest.raises(ValueError):
            critic_loss(g, r, f)


class TestGeneratorLoss:
    def build_graph(self, lam_cat, lam_cont, batch=8):
        rng = np.random.default_rng(2)
        g = Graph()
        fake = g.input("fake", (batch, 1))
        logits = g.input("logits", (batch, 4))
        cat_t = g.input("cat_t", (batch, 4))
        means = g.input("means", (batch, 1))
        cont_t = g.input("cont_t", (batch, 1))
        mi = mi_lower_bound(g, SPEC, [logits], [cat_t], means, cont_t)
        loss = generator_loss(g, fake, mi, lam_cat, lam_cont)
        onehot = np.zeros((batch, 4))
        onehot[np.arange(batch), rng.integers(0, 4, batch)] = 1.0
        inputs = {"fake": rng.normal(size=(batch, 1)),
                  "logits": rng.normal(size=(batch, 4)), "cat_t": onehot,
                  "means": rng.normal(size=(batch, 1)),
                  "cont_t": rng.uniform(-1, 1, size=(batch, 1))}
        acts = forward(g, ParamStore({}), inputs)
        return acts, loss, mi, inputs

    def test_zero_weights_reduce_to_adversarial_term(self):
        acts, loss, _, inputs = self.build_graph(0.0, 0.0)
        assert float(acts[loss]) == pytest.approx(-inputs["fake"].mean(), abs=1e-15)

    def test_bound_contribution_is_additive(self):
        acts, loss, mi, _ = self.build_graph(1.0, 0.1)
        acts0, loss0, _, _ = self.build_graph(0.0, 0.0)
        want = (float(acts0[loss0]) - 1.0 * float(acts[mi.cat])
                - 0.1 * float(acts[mi.cont]))
        assert float(acts[loss]) == pytest.approx(want, abs=1e-12)

    def test_generator_step_objectives_are_single_weighted_sums(self):
        spec = LatentSpec(z_dim=3, categorical=(4, 3), continuous=((-1.0, 1.0),))
        cfg = small_config(latent=spec, lambda_cat=0.5, lambda_cont=0.25)
        tr = build_trainer(cfg, mixture())
        sg = tr.gen_graph
        nodes = sg.graph.nodes
        loss, mi_loss = nodes[sg.loss], nodes[sg.mi_loss]
        assert loss.op == mi_loss.op == "weighted_sum"
        assert nodes[loss.args[0]].op == "mean"
        assert loss.args[1:] == mi_loss.args == (sg.mi.cat, sg.mi.cont)
        assert loss.w == (-1.0, -0.5, -0.25)
        assert mi_loss.w == (-0.5, -0.25)
        assert loss.k is None and mi_loss.k is None

    def test_gradient_reaches_generator_and_recovery_head(self):
        data = mixture()
        cfg = small_config()
        tr = build_trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(3))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg = tr.gen_graph
        acts = forward(sg.graph, tr.store, inputs)
        grads = backward(sg.graph, tr.store, acts, sg.loss)
        assert any(np.abs(grads[n]).max() > 0 for n in tr.gen.param_names())
        assert any(np.abs(grads[n]).max() > 0 for n in tr.critic.q_head_names())


class TestCriticStep:
    def test_zero_sigma_equals_plain_clipped_step(self):
        data = mixture()
        cfg = small_config(epsilon=privacy.INF, n_d=3)
        seeds = derive_seeds(cfg.seed)

        # reference: a hand-rolled clipped critic update with the same streams
        netcfg = NetConfig(latent=cfg.latent, data_dim=data.dim,
                           gen_hidden=cfg.gen_hidden, trunk_hidden=cfg.trunk_hidden,
                           seed=seeds["nets"])
        gen = build_generator(netcfg)
        critic = build_critic(netcfg)
        store = ParamStore({**gen.store.params, **critic.store.params})
        opt = RMSProp(cfg.lr_critic)
        codes_rng = np.random.default_rng(seeds["codes"])
        batches = batch_iter(data, cfg.batch, seeds["batches"])
        from imdp.train import _build_critic_graph
        cg = _build_critic_graph(critic, cfg.batch)
        for _ in range(3):
            x_real = next(batches)
            codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
            gg, _, out = gen._graph(cfg.batch)
            x_fake = forward(gg, store, {"gen_in": codes.concat()})[out]
            acts = forward(cg.graph, store, {"x_real": x_real, "x_fake": x_fake})
            backward(cg.graph, store, acts, cg.loss)
            opt.update(store, critic.critic_path_names())
            privacy.clip_weights(store, cfg.c_p, critic.critic_path_names())

        # one round of n_d = 3 steps, its fakes from one stacked forward
        tr = build_trainer(cfg, data)
        tr_batches = batch_iter(data, cfg.batch, seeds["batches"])
        tr.critic_round(tr_batches)
        for name in critic.critic_path_names():
            assert tr.store.params[name].tobytes() == store.params[name].tobytes()

    def test_weights_clipped_after_step(self):
        data = mixture()
        cfg = small_config(epsilon=1.22, c_p=0.01, n_d=4)
        tr = build_trainer(cfg, data)
        batches = batch_iter(data, cfg.batch, derive_seeds(cfg.seed)["batches"])
        tr.critic_round(batches)
        worst = max(np.abs(tr.store.params[n]).max()
                    for n in tr.critic.critic_path_names())
        assert worst <= 0.01

    def test_generator_and_q_head_slots_untouched(self):
        data = mixture()
        tr = build_trainer(small_config(epsilon=1.22), data)
        others = [n for n in tr.store.names()
                  if n not in tr.critic.critic_path_names()]
        for n in others:
            tr.store.grads[n][...] = 7.0
        batches = batch_iter(data, 16, derive_seeds(1)["batches"])
        codes = sample_codes(SPEC, 16, np.random.default_rng(0))
        tr.critic_step(next(batches), generate(tr.gen, codes))
        for n in others:
            assert np.all(tr.store.grads[n] == 7.0)

    def test_same_seed_identical_weights(self):
        data = mixture()
        cfg = small_config(epsilon=1.22, n_d=3)
        results = []
        for _ in range(2):
            tr = build_trainer(cfg, data)
            batches = batch_iter(data, cfg.batch, derive_seeds(cfg.seed)["batches"])
            tr.critic_round(batches)
            results.append({n: tr.store.params[n].copy() for n in tr.store.params})
        for name in results[0]:
            assert results[0][name].tobytes() == results[1][name].tobytes()


class TestCriticRound:
    @pytest.mark.parametrize("dim", [2, 784])
    def test_stacked_fakes_equal_separate_generate_calls(self, dim):
        if dim == 2:  # the acceptance trend shape
            data = synth_mixture(k=8, radius=0.75, std=0.1, n=768, seed=1)
            cfg = TrainConfig(n_g=1, batch=64, seed=2, epsilon=1.22, c_p=0.1,
                              latent=LatentSpec(z_dim=8, categorical=(8,),
                                                continuous=((-1.0, 1.0),)),
                              gen_hidden=(64, 64), trunk_hidden=(128, 128))
        else:  # the CLI's default nets on MNIST-sized features
            data = Dataset(np.random.default_rng(3).uniform(-1.0, 1.0, size=(128, 784)))
            cfg = TrainConfig(n_g=1, batch=64, seed=2,
                              latent=LatentSpec(z_dim=62, categorical=(10,),
                                                continuous=((-1.0, 1.0),)))
        tr = build_trainer(cfg, data)
        seen = []
        tr.critic_step = lambda x_real, x_fake: seen.append(x_fake.copy())
        tr.critic_round(batch_iter(data, cfg.batch, 0))
        rng = np.random.default_rng(derive_seeds(cfg.seed)["codes"])
        assert len(seen) == cfg.n_d
        for x_fake in seen:
            want = generate(tr.gen, sample_codes(cfg.latent, cfg.batch, rng))
            assert x_fake.tobytes() == want.tobytes()

    def test_one_iteration_runs_seven_forward_passes(self, monkeypatch):
        calls = []

        def counted(graph, store, inputs):
            calls.append(len(graph))
            return forward(graph, store, inputs)

        monkeypatch.setattr(train_module, "forward", counted)
        cfg = small_config(n_g=1)
        train(cfg, mixture())
        # one stacked generator pass, n_d critic passes, one generator-step pass
        assert len(calls) == 1 + cfg.n_d + 1 == 7

    def test_updates_walk_one_critic_run_and_two_generator_step_runs(self):
        tr = build_trainer(small_config(), mixture())
        assert len(tr.store.runs(tr.critic.critic_path_names())) == 1
        gen_step = [*tr.gen.param_names(), *tr.critic.trunk_names(),
                    *tr.critic.q_head_names()]
        assert len(tr.store.runs(gen_step)) == 2


def assert_wrt_pass_matches_full(graph, store, acts, loss, wrt):
    full = {n: g.copy() for n, g in backward(graph, store, acts, loss).items()}
    for slot in store.grads.values():
        slot[...] = 7.0
    backward(graph, store, acts, loss, wrt=wrt)
    for name, slot in store.grads.items():
        if name in wrt:
            assert slot.tobytes() == full[name].tobytes(), name
        else:
            assert (slot == 7.0).all(), name


class TestSharedStore:
    def test_trained_and_loaded_pairs_share_one_store(self, tmp_path):
        tr = build_trainer(small_config(), mixture())
        assert tr.gen.store is tr.critic.store is tr.store
        assert len(tr.store.runs()) == 1
        names = [*param_shapes(tr.gen.layers()), *param_shapes(tr.critic.layers())]
        assert tr.store.names() == names
        save_checkpoint(tmp_path / "model.ckpt", tr.gen, tr.critic, tr.spec)
        bundle = load_checkpoint(tmp_path / "model.ckpt")
        assert bundle.gen.store is bundle.critic.store
        assert bundle.gen.store._grads is None
        for name in names:
            assert bundle.gen.store.params[name].tobytes() == tr.store.params[name].tobytes()


class TestPrunedBackwardOnTrainerGraphs:
    def test_critic_graph(self):
        data = mixture()
        cfg = small_config()
        tr = build_trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(5))
        gg, _, out = tr.gen._graph(cfg.batch)
        x_fake = forward(gg, tr.store, {"gen_in": codes.concat()})[out]
        cg = tr.critic_graph
        acts = forward(cg.graph, tr.store, {"x_real": data.x[:cfg.batch], "x_fake": x_fake})
        assert_wrt_pass_matches_full(cg.graph, tr.store, acts, cg.loss,
                                     tr.critic.critic_path_names())

    def test_generator_graph_both_passes(self):
        data = mixture()
        cfg = small_config()
        tr = build_trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(6))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg = tr.gen_graph
        acts = forward(sg.graph, tr.store, inputs)
        assert_wrt_pass_matches_full(sg.graph, tr.store, acts, sg.loss,
                                     tr.gen.param_names())
        mi_names = [*tr.critic.trunk_names(), *tr.critic.q_head_names()]
        assert_wrt_pass_matches_full(sg.graph, tr.store, acts, sg.mi_loss, mi_names)


class TestGeneratorStep:
    def test_zero_cat_weight_zeroes_cat_head_gradient(self):
        data = mixture()
        cfg = small_config(lambda_cat=0.0)
        tr = build_trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(4))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg = tr.gen_graph
        acts = forward(sg.graph, tr.store, inputs)
        grads = backward(sg.graph, tr.store, acts, sg.mi_loss)
        assert np.abs(grads["q.cat0.W"]).max() == 0.0
        assert np.abs(grads["q.cont.W"]).max() > 0.0

    def test_logged_value_matches_recomputation(self):
        data = mixture()
        cfg = small_config()
        tr = build_trainer(cfg, data)
        rng_copy = np.random.default_rng(derive_seeds(cfg.seed)["codes"])
        _, l_i = tr.generator_step()
        codes = sample_codes(cfg.latent, cfg.batch, rng_copy)
        # rebuild the same graph inputs against the post-step parameters;
        # the logged value used the pre-step parameters, so recompute using
        # a fresh trainer instead
        tr2 = build_trainer(cfg, data)
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        acts = forward(tr2.gen_graph.graph, tr2.store, inputs)
        assert l_i == pytest.approx(float(acts[tr2.gen_graph.mi.total]), abs=0)

    def test_deterministic(self):
        data = mixture()
        cfg = small_config()
        vals = []
        for _ in range(2):
            tr = build_trainer(cfg, data)
            vals.append([tr.generator_step() for _ in range(3)])
        assert vals[0] == vals[1]

    def test_critic_path_clipped_at_boundary(self):
        data = mixture()
        cfg = small_config(c_p=0.01)
        tr = build_trainer(cfg, data)
        for _ in range(3):
            tr.generator_step()
        worst = max(np.abs(tr.store.params[n]).max()
                    for n in tr.critic.critic_path_names())
        assert worst <= 0.01


class TestTrain:
    def test_zero_iterations(self):
        result = train(small_config(n_g=0), mixture())
        assert len(result.log) == 0
        assert result.gen.store.params  # initialized nets returned

    def test_log_length_matches_iterations(self):
        result = train(small_config(n_g=7), mixture())
        assert len(result.log) == 7
        assert [r.iteration for r in result.log.records] == list(range(1, 8))

    def test_metrics_log_deterministic(self):
        a = train(small_config(n_g=6), mixture())
        b = train(small_config(n_g=6), mixture())
        assert a.log.to_text() == b.log.to_text()

    def test_private_run_reports_spend(self):
        result = train(small_config(n_g=3, epsilon=1.22), mixture())
        eps = result.log.series("eps_spent")
        assert np.all(np.isfinite(eps))
        assert eps[0] <= eps[1] <= eps[2]

    def test_nonprivate_run_reports_inf(self):
        result = train(small_config(n_g=2), mixture())
        assert np.all(np.isinf(result.log.series("eps_spent")))

    def test_error_carries_iteration_index(self):
        data = mixture()
        cfg = small_config(n_g=3, batch=512)  # batch exceeds dataset rows
        with pytest.raises(ValueError):
            train(cfg, data)
        # a 1e300 generator step leaves weights whose next forward overflows
        with pytest.raises(RuntimeError) as exc:
            train(small_config(n_g=3, lr_gen=1e300), data)
        assert str(exc.value) == "training failed at generator iteration 2"
        assert isinstance(exc.value.__cause__, NonFiniteError)

    def test_full_reduction_matches_reference_trainer(self):
        """With sigma=0 the private trainer is byte-equal to a plain
        weight-clipped adversarial trainer over 100 iterations."""
        data = mixture()
        cfg = small_config(n_g=100, epsilon=privacy.INF)
        result = train(cfg, data)

        seeds = derive_seeds(cfg.seed)
        netcfg = NetConfig(latent=cfg.latent, data_dim=data.dim,
                           gen_hidden=cfg.gen_hidden, trunk_hidden=cfg.trunk_hidden,
                           seed=seeds["nets"])
        gen = build_generator(netcfg)
        critic = build_critic(netcfg)
        store = ParamStore({**gen.store.params, **critic.store.params})
        opt_c, opt_g = RMSProp(cfg.lr_critic), RMSProp(cfg.lr_gen)
        codes_rng = np.random.default_rng(seeds["codes"])
        batches = batch_iter(data, cfg.batch, seeds["batches"])
        from imdp.train import _build_critic_graph
        cg = _build_critic_graph(critic, cfg.batch)
        sg = _build_gen_graph(gen, critic, cfg.latent, cfg.batch,
                              cfg.lambda_cat, cfg.lambda_cont)
        critic_names = critic.critic_path_names()
        mi_names = [*critic.trunk_names(), *critic.q_head_names()]
        for _ in range(cfg.n_g):
            for _ in range(cfg.n_d):
                x_real = next(batches)
                codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
                gg, _, out = gen._graph(cfg.batch)
                x_fake = forward(gg, store, {"gen_in": codes.concat()})[out]
                acts = forward(cg.graph, store, {"x_real": x_real, "x_fake": x_fake})
                backward(cg.graph, store, acts, cg.loss)
                opt_c.update(store, critic_names)
                privacy.clip_weights(store, cfg.c_p, critic_names)
            codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
            inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                      "cont": codes.cont}
            acts = forward(sg.graph, store, inputs)
            backward(sg.graph, store, acts, sg.loss)
            g1 = {n: store.grads[n].copy() for n in gen.param_names()}
            backward(sg.graph, store, acts, sg.mi_loss)
            for n, g in g1.items():
                store.grads[n][...] = g
            opt_g.update(store, gen.param_names())
            opt_g.update(store, mi_names)
            privacy.clip_weights(store, cfg.c_p, critic_names)
        for name in store.params:
            assert result.gen.store.params[name].tobytes() == store.params[name].tobytes(), name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator")
def test_freed_heap_is_not_faulted_back_each_iteration():
    # A fresh process: which modules are loaded moves glibc's dynamic
    # thresholds, so the test process's own heap would hide the effect.
    code = """
import resource
from imdp.data import synth_mixture
from imdp.latent import LatentSpec
from imdp.train import TrainConfig, train
spec = LatentSpec(z_dim=8, categorical=(8,), continuous=((-1.0, 1.0),))
data = synth_mixture(k=8, radius=0.75, std=0.1, n=768, seed=1)
def run(n):
    train(TrainConfig(n_g=n, batch=64, seed=2, epsilon=1.22, latent=spec, c_p=0.1,
                      gen_hidden=(64, 64), trunk_hidden=(128, 128)), data)
run(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(40)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    # ~1450 per iteration when each step's memory goes back to the kernel
    assert float(out) < 100.0


class TestMetricsLog:
    def test_strictly_increasing_iterations(self):
        log = MetricsLog()
        log.append(MetricsRecord(1, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            log.append(MetricsRecord(1, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))

    def test_unknown_field_rejected(self):
        log = MetricsLog()
        with pytest.raises(KeyError):
            log.series("no_such_field")

    def test_text_excludes_wall_clock(self):
        log = MetricsLog()
        log.append(MetricsRecord(1, 0.5, -0.25, 0.5, 1.0, float("inf"), 123.456))
        text = log.to_text()
        assert "123.456" not in text
        assert text.splitlines()[0].startswith("# iteration")


class TestRMSProp:
    def test_moves_against_gradient(self):
        store = ParamStore({"w": np.array([1.0])})
        opt = RMSProp(lr=0.1)
        store.grads["w"][...] = 1.0
        opt.update(store, ["w"])
        assert store.params["w"][0] < 1.0

    def test_state_split_differently_rejected(self):
        store = ParamStore({"v": np.array([1.0]), "w": np.array([1.0])})
        opt = RMSProp(lr=0.1)
        opt.update(store, ["v"])
        with pytest.raises(ValueError):
            opt.update(store, ["v", "w"])

    def test_zero_gradient_is_noop(self):
        store = ParamStore({"w": np.array([1.0])})
        store.grads["w"][...] = 0.0
        RMSProp(lr=0.1).update(store, ["w"])
        assert store.params["w"][0] == 1.0
