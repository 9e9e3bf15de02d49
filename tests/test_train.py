import gc
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

from imdp import privacy
from imdp import train as train_module
from imdp.autodiff import (Graph, NonFiniteError, ParamStore, ShapeError, backward,
                           forward, graph_per_batch)
from imdp.data import Dataset, batch_iter, synth_mixture
from imdp.latent import LatentSpec, sample_codes
from imdp.nets import (build_critic, build_generator, generate, load_checkpoint, NetConfig,
                       param_shapes, save_checkpoint)
from imdp.train import (MetricsLog, MetricsRecord, RMSProp, TrainConfig, Trainer,
                        critic_loss, derive_seeds, generator_loss, mi_objective, train)
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
        tr = Trainer(cfg, mixture())
        graph, loss_id, mi_loss_id, mi = tr.gen_graph(cfg.batch)
        nodes = graph.nodes
        loss, mi_loss = nodes[loss_id], nodes[mi_loss_id]
        assert loss.op == mi_loss.op == "weighted_sum"
        assert nodes[loss.args[0]].op == "mean"
        assert loss.args[1:] == mi_loss.args == (mi.cat, mi.cont)
        assert loss.w == (-1.0, -0.5, -0.25)
        assert mi_loss.w == (-0.5, -0.25)
        assert loss.k is None and mi_loss.k is None

    def test_gradient_reaches_generator_and_recovery_head(self):
        data = mixture()
        cfg = small_config()
        tr = Trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(3))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        graph, loss, _, _ = tr.gen_graph(cfg.batch)
        acts = forward(graph, tr.store, inputs)
        grads = backward(graph, tr.store, acts, loss)
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
        opt = RMSProp(cfg.lr_critic, store, critic.critic_path_names())
        codes_rng = np.random.default_rng(seeds["codes"])
        batches = batch_iter(data, cfg.batch, seeds["batches"])
        cg, loss = Trainer(cfg, data).critic_graph(cfg.batch)
        for _ in range(3):
            x_real = next(batches)
            codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
            gg, _, out = gen._graph(cfg.batch)
            x_fake = forward(gg, store, {"gen_in": codes.concat()})[out]
            acts = forward(cg, store, {"x_real": x_real, "x_fake": x_fake})
            backward(cg, store, acts, loss)
            opt.update()
            privacy.clip_weights(store, cfg.c_p, critic.critic_path_names())

        # one round of n_d = 3 steps, its fakes from one stacked forward
        tr = Trainer(cfg, data)
        tr.critic_round()
        for name in critic.critic_path_names():
            assert tr.store.params[name].tobytes() == store.params[name].tobytes()

    def test_weights_clipped_after_step(self):
        data = mixture()
        cfg = small_config(epsilon=1.22, c_p=0.01, n_d=4)
        tr = Trainer(cfg, data)
        tr.critic_round()
        worst = max(np.abs(tr.store.params[n]).max()
                    for n in tr.critic.critic_path_names())
        assert worst <= 0.01

    def test_generator_and_q_head_slots_untouched(self):
        data = mixture()
        tr = Trainer(small_config(epsilon=1.22), data)
        others = [n for n in tr.store.names()
                  if n not in tr.critic.critic_path_names()]
        for n in others:
            tr.store.grads[n][...] = 7.0
        codes = sample_codes(SPEC, 16, np.random.default_rng(0))
        tr.critic_step(next(tr.batches), generate(tr.gen, codes))
        for n in others:
            assert np.all(tr.store.grads[n] == 7.0)

    def test_noise_is_pinned_on_every_critic_path_name(self, monkeypatch):
        """With the update and clip stubbed, each step leaves every
        critic-path slot at the plain gradient plus noise of std
        sigma c_p / sqrt(m) per coordinate, and every other slot as it was."""
        tr = Trainer(small_config(epsilon=1.22), mixture())
        monkeypatch.setattr(tr.opt_critic, "update", lambda: None)
        monkeypatch.setattr(privacy, "clip_weights", lambda *args: None)
        m = tr.config.batch
        x_real = next(tr.batches)
        x_fake = generate(tr.gen, sample_codes(SPEC, m, np.random.default_rng(0)))
        graph, loss = tr.critic_graph(m)
        acts = forward(graph, tr.store, {"x_real": x_real, "x_fake": x_fake})
        backward(graph, tr.store, acts, loss, wrt=tr.critic_path)
        plain = {n: tr.store.grads[n].copy() for n in tr.critic_path}
        others = [n for n in tr.store.names() if n not in plain]
        for n in others:
            tr.store.grads[n][...] = 7.0
        noise = {n: [] for n in plain}
        for _ in range(400):
            tr.critic_step(x_real, x_fake)
            for n in plain:
                noise[n].append(tr.store.grads[n] - plain[n])
        want = tr.spec.sigma * tr.spec.c_p / np.sqrt(m)
        for n, draws in noise.items():
            assert abs(np.std(draws) / want - 1.0) <= 0.15, n
        for n in others:
            assert np.all(tr.store.grads[n] == 7.0), n

    def test_same_seed_identical_weights(self):
        data = mixture()
        cfg = small_config(epsilon=1.22, n_d=3)
        results = []
        for _ in range(2):
            tr = Trainer(cfg, data)
            tr.critic_round()
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
        tr = Trainer(cfg, data)
        seen = []
        tr.critic_step = lambda x_real, x_fake: seen.append(x_fake.copy())
        tr.critic_round()
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
        tr = Trainer(small_config(), mixture())
        assert [run.names for run in tr.opt_critic.runs] == [tuple(tr.critic_path)]
        gen_step = (*tr.gen.param_names(), *tr.critic.trunk_names(),
                    *tr.critic.q_head_names())
        assert len(tr.opt_gen.runs) == 2
        assert sum((run.names for run in tr.opt_gen.runs), ()) == gen_step


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


def test_each_graph_per_batch_method_keeps_its_own_graphs():
    class TwoGraphs:
        @graph_per_batch
        def one(self, batch):
            return ("one", batch)

        @graph_per_batch
        def two(self, batch):
            return ("two", batch)

    obj = TwoGraphs()
    assert obj.one(4) == ("one", 4)
    assert obj.two(4) == ("two", 4)
    assert obj.one(4) == ("one", 4)
    cfg = small_config()
    tr = Trainer(cfg, mixture())
    assert tr.critic_graph(cfg.batch) is tr.critic_graph(cfg.batch)
    assert tr.critic_graph(cfg.batch) is not tr.gen_graph(cfg.batch)
    # the steps look their graph up at the configured batch size
    x = mixture().x[:cfg.batch // 2]
    with pytest.raises(ShapeError):
        tr.critic_step(x, x)


class TestRealDataFlow:
    def test_real_batches_enter_only_the_critic_graphs_x_real(self, monkeypatch):
        """Real rows reach the program only as ``x_real`` of the critic
        graph, and every backward pass over that graph is taken with
        respect to the critic path alone, the set the noise covers."""
        cfg = small_config(n_g=3, n_d=2, epsilon=1.22)
        tr = Trainer(cfg, mixture())
        real = []  # references, not ids: a freed batch's id can be reused
        inner = tr.batches

        def keep():
            for batch in inner:
                real.append(batch)
                yield batch

        tr.batches = keep()
        bound, wrts = [], []

        def traced_forward(graph, store, inputs):
            bound.append((graph, inputs))
            return forward(graph, store, inputs)

        def traced_backward(graph, store, acts, loss, wrt=None):
            wrts.append((graph, wrt))
            return backward(graph, store, acts, loss, wrt=wrt)

        monkeypatch.setattr(train_module, "forward", traced_forward)
        monkeypatch.setattr(train_module, "backward", traced_backward)
        tr.run()
        critic_graph, _ = tr.critic_graph(cfg.batch)
        assert len(real) == cfg.n_g * cfg.n_d
        for batch in real:
            uses = [(graph, name, value is batch) for graph, inputs in bound
                    for name, value in inputs.items() if np.shares_memory(value, batch)]
            assert uses == [(critic_graph, "x_real", True)]
        critic_wrts = [wrt for graph, wrt in wrts if graph is critic_graph]
        assert len(critic_wrts) == cfg.n_g * cfg.n_d
        assert all(wrt == tr.critic_path for wrt in critic_wrts)


class TestSharedStore:
    def test_trained_and_loaded_pairs_share_one_store(self, tmp_path):
        tr = Trainer(small_config(), mixture())
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
        tr = Trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(5))
        gg, _, out = tr.gen._graph(cfg.batch)
        x_fake = forward(gg, tr.store, {"gen_in": codes.concat()})[out]
        cg, loss = tr.critic_graph(cfg.batch)
        acts = forward(cg, tr.store, {"x_real": data.x[:cfg.batch], "x_fake": x_fake})
        assert_wrt_pass_matches_full(cg, tr.store, acts, loss, tr.critic.critic_path_names())

    def test_generator_graph_both_passes(self):
        data = mixture()
        cfg = small_config()
        tr = Trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(6))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg, loss, mi_loss, _ = tr.gen_graph(cfg.batch)
        acts = forward(sg, tr.store, inputs)
        assert_wrt_pass_matches_full(sg, tr.store, acts, loss, tr.gen.param_names())
        mi_names = [*tr.critic.trunk_names(), *tr.critic.q_head_names()]
        assert_wrt_pass_matches_full(sg, tr.store, acts, mi_loss, mi_names)


class TestGeneratorStep:
    def test_zero_cat_weight_zeroes_cat_head_gradient(self):
        data = mixture()
        cfg = small_config(lambda_cat=0.0)
        tr = Trainer(cfg, data)
        codes = sample_codes(cfg.latent, cfg.batch, np.random.default_rng(4))
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg, _, mi_loss, _ = tr.gen_graph(cfg.batch)
        acts = forward(sg, tr.store, inputs)
        grads = backward(sg, tr.store, acts, mi_loss)
        assert np.abs(grads["q.cat0.W"]).max() == 0.0
        assert np.abs(grads["q.cont.W"]).max() > 0.0

    def test_logged_value_matches_recomputation(self):
        data = mixture()
        cfg = small_config()
        tr = Trainer(cfg, data)
        rng_copy = np.random.default_rng(derive_seeds(cfg.seed)["codes"])
        _, l_i = tr.generator_step()
        codes = sample_codes(cfg.latent, cfg.batch, rng_copy)
        # rebuild the same graph inputs against the post-step parameters;
        # the logged value used the pre-step parameters, so recompute using
        # a fresh trainer instead
        tr2 = Trainer(cfg, data)
        inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                  "cont": codes.cont}
        sg, _, _, mi = tr2.gen_graph(cfg.batch)
        acts = forward(sg, tr2.store, inputs)
        assert l_i == pytest.approx(float(acts[mi.total]), abs=0)

    def test_deterministic(self):
        data = mixture()
        cfg = small_config()
        vals = []
        for _ in range(2):
            tr = Trainer(cfg, data)
            vals.append([tr.generator_step() for _ in range(3)])
        assert vals[0] == vals[1]

    def test_critic_path_clipped_at_boundary(self):
        data = mixture()
        cfg = small_config(c_p=0.01)
        tr = Trainer(cfg, data)
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

    def test_eps_spent_is_the_accountants_closed_form(self):
        cfg = small_config(n_g=4, epsilon=1.22)
        data = mixture()
        result = train(cfg, data)
        start = privacy.AccountantState.create(cfg.batch / data.n, result.privacy.sigma)
        for r in result.log.records:
            steps = privacy.accumulate(start, r.iteration * cfg.n_d)
            assert r.eps_spent == privacy.spent_epsilon(steps, cfg.delta), r.iteration

    def test_nonprivate_run_reports_inf(self):
        result = train(small_config(n_g=2), mixture())
        assert np.all(np.isinf(result.log.series("eps_spent")))

    def test_error_carries_iteration_index(self):
        data = mixture()
        cfg = small_config(n_g=3, batch=512)  # batch exceeds dataset rows
        with pytest.raises(ValueError, match="^batch size 512 out of range for 256 rows$"):
            train(cfg, data)
        # a 1e300 generator step leaves weights whose next forward overflows
        with pytest.raises(RuntimeError) as exc:
            train(small_config(n_g=3, lr_gen=1e300), data)
        assert str(exc.value) == "training failed at generator iteration 2"
        assert isinstance(exc.value.__cause__, NonFiniteError)

    def test_finished_run_does_not_keep_its_dataset_alive(self):
        data = mixture()
        ref = weakref.ref(data)
        result = train(small_config(n_g=2), data)
        del data
        gc.collect()
        assert ref() is None
        assert len(result.log) == 2

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
        critic_names = critic.critic_path_names()
        mi_names = [*critic.trunk_names(), *critic.q_head_names()]
        opt_c = RMSProp(cfg.lr_critic, store, critic_names)
        opt_g = RMSProp(cfg.lr_gen, store, gen.param_names() + mi_names)
        codes_rng = np.random.default_rng(seeds["codes"])
        batches = batch_iter(data, cfg.batch, seeds["batches"])
        graphs = Trainer(cfg, data)
        cg, critic_loss_id = graphs.critic_graph(cfg.batch)
        sg, gen_loss_id, mi_loss_id, _ = graphs.gen_graph(cfg.batch)
        for _ in range(cfg.n_g):
            for _ in range(cfg.n_d):
                x_real = next(batches)
                codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
                gg, _, out = gen._graph(cfg.batch)
                x_fake = forward(gg, store, {"gen_in": codes.concat()})[out]
                acts = forward(cg, store, {"x_real": x_real, "x_fake": x_fake})
                backward(cg, store, acts, critic_loss_id)
                opt_c.update()
                privacy.clip_weights(store, cfg.c_p, critic_names)
            codes = sample_codes(cfg.latent, cfg.batch, codes_rng)
            inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0],
                      "cont": codes.cont}
            acts = forward(sg, store, inputs)
            backward(sg, store, acts, gen_loss_id)
            g1 = {n: store.grads[n].copy() for n in gen.param_names()}
            backward(sg, store, acts, mi_loss_id)
            for n, g in g1.items():
                store.grads[n][...] = g
            opt_g.update()
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
        opt = RMSProp(0.1, store, ["w"])
        store.grads["w"][...] = 1.0
        opt.update()
        assert store.params["w"][0] < 1.0

    def test_zero_gradient_is_noop(self):
        store = ParamStore({"w": np.array([1.0])})
        store.grads["w"][...] = 0.0
        RMSProp(0.1, store, ["w"]).update()
        assert store.params["w"][0] == 1.0

    def test_steps_its_set_alone_with_one_buffer_per_run(self):
        store = ParamStore({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
        opt = RMSProp(0.1, store, ["a", "c"])
        assert [run.names for run in opt.runs] == [("a",), ("c",)]
        assert [c.shape for c in opt.cache] == [(2,), (1,)]
        for slot in store.grads.values():
            slot[...] = 1.0
        opt.update()
        assert (store.params["a"] < 1.0).all() and (store.params["c"] < 1.0).all()
        assert (store.params["b"] == 1.0).all()
