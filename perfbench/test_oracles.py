"""The benchmark's oracles agree with the program where the program is right.

    python3 -m pytest perfbench -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from imdp import cli, data, nets, privacy  # noqa: E402
from imdp.latent import LatentSpec, sample_codes  # noqa: E402
from imdp.nets import NetConfig, build_critic, build_generator  # noqa: E402
from imdp.train import TrainConfig, train  # noqa: E402


@pytest.mark.parametrize("q,sigma", [(64 / 768, 1.04), (64 / 768, 0.5), (64 / 768, 0.108),
                                     (64 / 60000, 0.0133), (0.3, 2.0)])
def test_log_moment_matches_quadrature(q, sigma):
    for lam in (1, 2, 5, 16, 32):
        want = privacy.step_log_moment(q, sigma, lam)
        assert max(oracles.log_moment(q, sigma, lam), 0.0) == pytest.approx(want, rel=1e-10)


def test_spent_epsilon_matches_accountant():
    q, sigma = 64 / 768, oracles.calibrated_sigma(1.22, 1e-5, 64 / 768, 5)
    state = privacy.accumulate(privacy.AccountantState.create(q, sigma), 500)
    want = privacy.spent_epsilon(state, 1e-5)
    got = oracles.spent_epsilon(oracles.step_moments(q, sigma), 500, 1e-5)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("epsilon", [5.5, 2.2, 1.22, math.inf])
def test_calibrated_sigma_matches_program(epsilon):
    for q in (64 / 768, 64 / 60000):
        want = privacy.calibrate_sigma(epsilon, 1e-5, q, 5)
        assert oracles.calibrated_sigma(epsilon, 1e-5, q, 5) == pytest.approx(want, rel=1e-15)


def test_generator_forward_matches_program():
    spec = LatentSpec(z_dim=5, categorical=(4, 3), continuous=((-1.0, 1.0), (0.0, 2.0)))
    gen = build_generator(NetConfig(latent=spec, data_dim=9, gen_hidden=(7, 6), seed=3))
    codes = sample_codes(spec, 11, np.random.default_rng(0))
    want = nets.generate(gen, codes)
    np.testing.assert_array_equal(oracles.generator_forward(gen.store.params, codes.concat()),
                                  want)


def test_idx_writers_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(13, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=13).astype(np.uint8)
    oracles.write_idx_images(tmp_path / "x.idx", images)
    oracles.write_idx_labels(tmp_path / "y.idx", labels)
    ds = cli.load_dataset(f"idx:{tmp_path / 'x.idx'},labels={tmp_path / 'y.idx'}")
    np.testing.assert_array_equal(ds.x, oracles.bytes_to_features(images.reshape(13, 20)))
    np.testing.assert_array_equal(ds.y, labels)
    np.testing.assert_array_equal(oracles.features_to_bytes(ds.x),
                                  data.bytes_from_features(ds.x))


def _nets(spec, data_dim, seed):
    cfg = NetConfig(latent=spec, data_dim=data_dim, gen_hidden=(6,), trunk_hidden=(5, 4),
                    seed=seed)
    return build_generator(cfg), build_critic(cfg)


@pytest.mark.parametrize("epsilon", [math.inf, 2.2])
def test_checkpoint_writer_matches_program(tmp_path, epsilon):
    spec = LatentSpec(z_dim=3, categorical=(4,), continuous=((-1.0, 1.0),))
    gen, critic = _nets(spec, 16, 0)
    blob = oracles.checkpoint_bytes(gen.store.params, critic.store.params, z_dim=3,
                                    categorical=(4,), continuous=((-1.0, 1.0),),
                                    epsilon=epsilon, delta=1e-5, c_p=0.01, q=64 / 6000, n_d=5)
    (tmp_path / "a.ckpt").write_bytes(blob)
    bundle = nets.load_checkpoint(tmp_path / "a.ckpt")
    for name, arr in {**gen.store.params, **critic.store.params}.items():
        store = bundle.gen.store if name.startswith("gen.") else bundle.critic.store
        np.testing.assert_array_equal(store.params[name], arr)
    assert bundle.latent == spec
    nets.save_checkpoint(tmp_path / "b.ckpt", bundle.gen, bundle.critic, bundle.privacy)
    assert (tmp_path / "b.ckpt").read_bytes() == blob


@pytest.mark.parametrize("spec", [
    LatentSpec(z_dim=3, categorical=(4,), continuous=((-1.0, 1.0),)),
    LatentSpec(z_dim=2, categorical=(3, 2), continuous=((0.0, 2.0), (-1.0, 1.0))),
])
def test_sweep_image_matches_generate(tmp_path, spec):
    gen, critic = _nets(spec, 16, 5)
    blob = oracles.checkpoint_bytes(gen.store.params, critic.store.params, z_dim=spec.z_dim,
                                    categorical=spec.categorical, continuous=spec.continuous,
                                    epsilon=math.inf, delta=1e-5, c_p=0.01, q=0.1, n_d=5)
    (tmp_path / "m.ckpt").write_bytes(blob)
    assert cli.main(["generate", "--checkpoint", str(tmp_path / "m.ckpt"), "--cont-steps", "4",
                     "--seed", "9", "--out", str(tmp_path)]) == 0
    want = oracles.sweep_pgm(gen.store.params, spec.z_dim, spec.categorical, spec.continuous,
                             seed=9, cont_steps=4)
    assert (tmp_path / "sweep.pgm").read_bytes() == want


def test_held_out_split_matches_evaluate(tmp_path, capsys):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, size=90).astype(np.uint8)
    images = rng.integers(0, 256, size=(90, 4, 4), dtype=np.uint8)
    oracles.write_idx_images(tmp_path / "x.idx", images)
    oracles.write_idx_labels(tmp_path / "y.idx", labels)
    spec = LatentSpec(z_dim=3, categorical=(4,), continuous=((-1.0, 1.0),))
    gen, critic = _nets(spec, 16, 1)
    blob = oracles.checkpoint_bytes(gen.store.params, critic.store.params, z_dim=3,
                                    categorical=(4,), continuous=((-1.0, 1.0),),
                                    epsilon=math.inf, delta=1e-5, c_p=0.01, q=0.1, n_d=5)
    (tmp_path / "m.ckpt").write_bytes(blob)
    assert cli.main(["evaluate", "--model", f"inf={tmp_path / 'm.ckpt'}", "--pair", "1,2",
                     "--dataset", f"idx:{tmp_path / 'x.idx'},labels={tmp_path / 'y.idx'}",
                     "--per-class", "8", "--map-samples", "30", "--epochs", "1",
                     "--seed", "4", "--out", str(tmp_path)]) == 0
    n_test, digest = oracles.held_out_split(images, labels, 4, 30, (1, 2))
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(row[4]) == n_test
    assert f"test_split_sha256={digest}\n" in (tmp_path / "utility-manifest.txt").read_text()


def test_tracing_leaves_training_unchanged():
    ds = data.synth_mixture(k=4, radius=0.75, std=0.1, n=64, seed=0)
    cfg = TrainConfig(n_g=3, batch=16, seed=1, epsilon=2.2,
                      latent=LatentSpec(z_dim=3, categorical=(4,), continuous=((-1.0, 1.0),)),
                      gen_hidden=(8,), trunk_hidden=(8,))
    plain = train(cfg, ds).log.to_text()
    before = {m: dict(vars(m)) for m in tracing.MODULES}
    t = tracing.Tracer()
    t.install()
    try:
        traced = train(cfg, ds).log.to_text()
    finally:
        t.uninstall()
    assert traced == plain
    names = {s[0] for s in t.spans}
    assert {"autodiff.forward", "autodiff.backward", "latent.sample_codes",
            "privacy.perturb_gradient", "privacy.clip_weights", "privacy.spent_epsilon",
            "privacy.AccountantState.create", "data.batch_next", "train.critic_step",
            "train.generator_step", "train.rmsprop"} <= names
    for m in tracing.MODULES:
        assert all(vars(m).get(k) is v for k, v in before[m].items())
    assert privacy.AccountantState.__dict__["create"].__func__.__name__ == "create"
