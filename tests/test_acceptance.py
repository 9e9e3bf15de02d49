"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a PASS/FAIL line on the real stdout so the gate reads
as a checklist even under pytest's capture.  The trend criteria share
the session-scoped model suite from conftest.
"""
import dataclasses
import math
import sys

import numpy as np
import pytest

from imdp.autodiff import Graph, ParamStore, forward, grad_check
from imdp.cli import main
from imdp.data import synth_mixture
from imdp.evaluation import curve_stats, timing_overhead, utility_privacy_curve
from imdp.latent import LatentSpec, mi_lower_bound
from imdp.nets import NetConfig, build_critic, build_generator
from imdp.privacy import (AccountantState, accumulate, calibrate_sigma,
                          perturb_gradient, spent_epsilon, step_log_moment)
from imdp.train import TrainConfig, generator_loss, train

from conftest import TREND_SEEDS, trend_config


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


# frozen from a 40-digit desk evaluation of 2 q sqrt(n_d log(1/delta)) / eps
CALIBRATION_ORACLE = {
    1.22: 0.013267122442711662084,
    2.2: 0.007357222445503739883,
    5.5: 0.0029428889782014959532,
}


def test_criterion_01_calibration_exactness():
    worst = 0.0
    for eps, want in CALIBRATION_ORACLE.items():
        got = calibrate_sigma(eps, 1e-5, 64 / 60000, 5)
        worst = max(worst, abs(got - want) / want)
    report(1, worst <= 1e-12, f"calibration max relative error {worst:.2e} <= 1e-12")


def _random_graph(index: int):
    """One of five rotating graph families, parameters at a scale that
    keeps finite differences away from piecewise-linear kinks."""
    rng = np.random.default_rng(1000 + index)
    kind = index % 5
    g = Graph()
    batch = int(rng.integers(2, 5))
    if kind < 3:
        act = ("tanh", "relu", "leaky_relu")[kind]
        widths = [int(rng.integers(2, 6)) for _ in range(3)]
        x = g.input("x", (batch, widths[0]))
        h = x
        params = {}
        for i in range(len(widths) - 1):
            params[f"w{i}"] = rng.normal(0.0, 0.5, size=(widths[i], widths[i + 1]))
            params[f"b{i}"] = rng.normal(0.0, 0.2, size=widths[i + 1])
            h = getattr(g, act)(g.affine(h, g.param(f"w{i}", (widths[i], widths[i + 1])),
                                         g.param(f"b{i}", (widths[i + 1],))))
        store = ParamStore(params)
        total = g.weighted_sum([(g.mean(h), float(batch * widths[-1]))])  # the sum of h
        loss = g.weighted_sum([(g.weighted_sum([(g.mean(h), 1.0), (total, 1.0)]), 0.7)], 1.3)
        loss = g.weighted_sum([(loss, 1.0), (g.weighted_sum([(g.mean(x), -1.0)]), -1.0)])
        inputs = {"x": rng.normal(size=(batch, widths[0]))}
    elif kind == 3:
        k, n_cont, d = 4, 2, 3
        store = ParamStore({"w": rng.normal(0.0, 0.5, size=(d, k)),
                            "b": rng.normal(0.0, 0.2, size=k),
                            "wm": rng.normal(0.0, 0.5, size=(d, n_cont)),
                            "bm": rng.normal(0.0, 0.2, size=n_cont)})
        x = g.input("x", (batch, d))
        logits = g.affine(x, g.param("w", (d, k)), g.param("b", (k,)))
        means = g.affine(x, g.param("wm", (d, n_cont)), g.param("bm", (n_cont,)))
        onehot = np.zeros((batch, k))
        onehot[np.arange(batch), rng.integers(0, k, batch)] = 1.0
        loss = g.weighted_sum([(g.softmax_xent(logits, g.input("t", (batch, k))), 1.0),
                               (g.gaussian_loglik(means, g.input("u", (batch, n_cont))), -1.0)])
        u = rng.normal(size=(batch, n_cont))
        inputs = {"x": rng.normal(size=(batch, d)), "t": onehot, "u": u}
    else:
        spec = LatentSpec(z_dim=3, categorical=(3,), continuous=((-1.0, 1.0),))
        cfg = NetConfig(latent=spec, data_dim=2, gen_hidden=(5,),
                        trunk_hidden=(6,), seed=int(rng.integers(0, 2**31)))
        gen, critic = build_generator(cfg), build_critic(cfg)
        for net in (gen, critic):
            for arr in net.store.params.values():
                arr[...] = rng.normal(0.0, 0.5, size=arr.shape)
        store = ParamStore.union(gen.store, critic.store)
        gen_in = g.input("gen_in", (batch, gen.input_width))
        fake = gen.append_to_graph(g, gen_in)
        trunk = critic.append_trunk(g, fake)
        score = critic.append_score_head(g, trunk)
        cat_nodes, cont_node = critic.append_q_heads(g, trunk)
        onehot = np.zeros((batch, 3))
        onehot[np.arange(batch), rng.integers(0, 3, batch)] = 1.0
        mi = mi_lower_bound(g, spec, cat_nodes, [g.input("cat0", (batch, 3))], cont_node,
                            g.input("cont", (batch, 1)))
        loss = generator_loss(g, score, mi, lambda_cat=1.0, lambda_cont=0.1)
        cont = rng.uniform(-1, 1, size=(batch, 1))
        inputs = {"gen_in": rng.normal(size=(batch, gen.input_width)),
                  "cat0": onehot, "cont": cont}
    return g, store, inputs, loss


def test_criterion_02_gradient_correctness():
    worst = 0.0
    for index in range(50):
        g, store, inputs, loss = _random_graph(index)
        worst = max(worst, grad_check(g, store, inputs, loss, h=1e-5))
    report(2, worst <= 1e-6,
           f"50 randomized graphs incl. composite objective, max error {worst:.2e} <= 1e-6")


def test_criterion_03_clip_invariant():
    spec = LatentSpec(z_dim=4, categorical=(4,), continuous=((-1.0, 1.0),))
    cfg = TrainConfig(n_g=500, batch=64, seed=2, epsilon=1.22, c_p=0.01,
                      latent=spec, gen_hidden=(16, 16), trunk_hidden=(32, 32))
    data = synth_mixture(k=4, radius=0.75, std=0.1, n=256, seed=21)
    worst = 0.0

    def check(_, trainer):
        nonlocal worst
        bound = max(np.abs(trainer.store.params[n]).max()
                    for n in trainer.critic.critic_path_names())
        worst = max(worst, bound)

    result = train(cfg, data, on_iteration=check)
    assert len(result.log) == 500
    report(3, worst <= 0.01,
           f"500 private iterations, max |critic-path weight| {worst:.6f} <= 0.01")


def test_criterion_04_accountant_oracle():
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0, 4.0):
        for lam in range(1, 33):
            got = step_log_moment(1.0, sigma, lam)
            want = lam * (lam + 1) / (2.0 * sigma * sigma)
            worst = max(worst, abs(got - want))
    report(4, worst <= 1e-9,
           f"q=1 log-moments vs analytic, max abs error {worst:.2e} <= 1e-9")


def test_criterion_05_recovery_bound_oracle():
    spec = LatentSpec(z_dim=2, categorical=(10,), continuous=())
    g = Graph()
    logits = g.input("logits", (4, 10))
    target = g.input("target", (4, 10))
    mi = mi_lower_bound(g, spec, [logits], [target])
    onehot = np.zeros((4, 10))
    onehot[np.arange(4), [2, 7, 0, 9]] = 1.0
    from imdp.autodiff import forward
    delta_val = float(forward(g, ParamStore({}),
                              {"logits": 1000.0 * onehot, "target": onehot})[mi.cat])
    uniform_val = float(forward(g, ParamStore({}),
                                {"logits": np.zeros((4, 10)), "target": onehot})[mi.cat])
    exact = delta_val == math.log(10) and uniform_val == 0.0

    rng = np.random.default_rng(31)
    batch = 64
    g2 = Graph()
    lg = g2.input("logits", (batch, 10))
    tg = g2.input("target", (batch, 10))
    mi2 = mi_lower_bound(g2, spec, [lg], [tg])
    logits_v = rng.normal(0.0, 2.0, size=(batch, 10))
    idx = rng.integers(0, 10, batch)
    onehot_v = np.zeros((batch, 10))
    onehot_v[np.arange(batch), idx] = 1.0
    got = float(forward(g2, ParamStore({}), {"logits": logits_v, "target": onehot_v})[mi2.cat])
    acc = 0.0
    for i in range(batch):
        row = [math.exp(v) for v in logits_v[i]]
        acc += math.log(row[idx[i]] / sum(row))
    want = math.log(10) + acc / batch
    enum_err = abs(got - want)
    report(5, exact and enum_err <= 1e-9,
           f"delta posterior = ln 10 and uniform = 0 exactly; "
           f"batch enumeration error {enum_err:.2e} <= 1e-9")


def test_criterion_06_utility_privacy_trend(trend_suite):
    runs = trend_suite["runs"]
    seed = TREND_SEEDS[0]
    models = {eps: (runs[(seed, eps)].gen, runs[(seed, eps)].critic)
              for eps in (float("inf"), 5.5, 2.2, 1.22)}
    rep = utility_privacy_curve(models, pair=(0, 1),
                                real_test=trend_suite["test_data"],
                                map_data=trend_suite["map_data"],
                                per_class=2000, epochs=100, seed=5)
    acc = rep.accuracies()
    gap = acc[float("inf")] - acc[1.22]
    rho = rep.spearman()
    counts = {r.epsilon: r.n_train for r in rep.rows}
    report(6, gap >= 0.05 and rho > 0.0 and all(v == 4000 for v in counts.values()),
           f"accuracy(inf)-accuracy(1.22) = {gap:.3f} >= 0.05, "
           f"spearman {rho:+.2f} > 0, 2000 rows per class")


def test_criterion_07_fluctuation_trend(trend_suite):
    runs = trend_suite["runs"]
    ratios = []
    ok = True
    for seed in TREND_SEEDS:
        private = curve_stats(runs[(seed, 1.22)].log, "wdist").second_half_var
        plain = curve_stats(runs[(seed, float("inf"))].log, "wdist").second_half_var
        ok = ok and private > plain
        ratios.append(private / plain)
    report(7, ok, "second-half wdist variance larger at eps=1.22 for 3/3 seeds "
           f"(ratios {', '.join(f'{r:.1f}x' for r in ratios)})")


def test_criterion_08_recovery_bound_degradation(trend_suite):
    runs = trend_suite["runs"]
    gaps = []
    ok = True
    for seed in TREND_SEEDS:
        plain = curve_stats(runs[(seed, float("inf"))].log, "l_i", window=100).mean
        private = curve_stats(runs[(seed, 1.22)].log, "l_i", window=100).mean
        ok = ok and plain > private
        gaps.append(plain - private)
    report(8, ok, "final-100 recovery bound higher at eps=inf for 3/3 seeds "
           f"(gaps {', '.join(f'{v:+.3f}' for v in gaps)})")


def test_criterion_09_noise_statistics():
    store = ParamStore({"g": np.zeros(100000)})
    perturb_gradient(store, 1.0, 0.01, np.random.default_rng(77))
    draws = store.grads["g"]
    se = 0.01 / math.sqrt(draws.size)
    mean_ok = abs(draws.mean()) <= 4 * se
    std_ok = 0.0095 <= draws.std() <= 0.0105
    report(9, mean_ok and std_ok,
           f"1e5 draws: |mean| {abs(draws.mean()):.2e} <= 4se {4 * se:.2e}, "
           f"std {draws.std():.5f} in [0.0095, 0.0105]")


def test_criterion_10_overhead_property(tmp_path):
    cfg = trend_config(seed=9, epsilon=1.22)
    cfg = TrainConfig(**{**cfg.__dict__, "n_g": 250})
    data = synth_mixture(k=8, radius=0.75, std=0.1, n=768, seed=11)
    timing = timing_overhead(cfg, data)
    manifest = tmp_path / "overhead-manifest.txt"
    manifest.write_text(
        f"private_ms={timing.private_ms:.1f}\n"
        f"nonprivate_ms={timing.nonprivate_ms:.1f}\n"
        f"overhead_ratio={timing.ratio:.4f}\n")
    report(10, timing.private_ms > timing.nonprivate_ms,
           f"private {timing.private_ms:.0f}ms > non-private "
           f"{timing.nonprivate_ms:.0f}ms (ratio {timing.ratio:.2f}, "
           f"recorded in {manifest.name})")


def test_criterion_11_replay_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("latent.z_dim=4\nlatent.cat=4\nnet.gen_hidden=16\n"
                   "net.trunk_hidden=16\ntrain.batch=16\ntrain.ng=30\n"
                   "train.dataset=mixture:k=4,n=256,std=0.1,seed=1\n"
                   "privacy.epsilon=2.2\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    resolved = next(out1.iterdir()) / "config.resolved"
    assert main(["train", "--config", str(resolved), "--out", str(out2)]) == 0
    m1 = (next(out1.iterdir()) / "metrics.log").read_bytes()
    m2 = (next(out2.iterdir()) / "metrics.log").read_bytes()
    report(11, m1 == m2,
           f"two runs from one manifest: metrics logs byte-identical ({len(m1)} bytes)")
