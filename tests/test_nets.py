import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdp.autodiff import _softmax_rows as softmax
from imdp.cli import EXIT_VALIDATION, main
from imdp.latent import Codes, LatentSpec, sample_codes
from imdp.nets import (CheckpointError, GeneratorNet, NetConfig,
                       build_critic, build_generator, critic_score, generate,
                       load_checkpoint, param_shapes, q_posterior, save_checkpoint)
from imdp.privacy import INF, PrivacySpec

SPEC = LatentSpec(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),))


def small_cfg(seed=0):
    spec = LatentSpec(z_dim=4, categorical=(3,), continuous=((-1.0, 1.0),))
    return NetConfig(latent=spec, data_dim=5, gen_hidden=(8, 8),
                     trunk_hidden=(8, 8), seed=seed)


class TestBuild:
    def test_input_width_is_z_plus_codes(self):
        cfg = NetConfig(latent=SPEC, data_dim=64)
        assert build_generator(cfg).input_width == 73

    def test_no_hidden_layers_is_direct_affine(self):
        spec = LatentSpec(z_dim=3, categorical=(), continuous=())
        cfg = NetConfig(latent=spec, data_dim=2, gen_hidden=())
        gen = build_generator(cfg)
        assert set(gen.store.params) == {"gen.out.W", "gen.out.b"}
        assert gen.store.params["gen.out.W"].shape == (3, 2)

    def test_same_seed_same_parameters(self):
        a, b = build_generator(small_cfg(7)), build_generator(small_cfg(7))
        for name in a.store.params:
            assert a.store.params[name].tobytes() == b.store.params[name].tobytes()

    def test_different_seed_different_parameters(self):
        a, b = build_generator(small_cfg(7)), build_generator(small_cfg(8))
        assert a.store.params["gen.h0.W"].tobytes() != b.store.params["gen.h0.W"].tobytes()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            NetConfig(latent=SPEC, data_dim=0)
        with pytest.raises(ValueError):
            NetConfig(latent=SPEC, data_dim=4, gen_hidden=(0,))

    def test_init_scheme(self):
        gen = build_generator(small_cfg(3))
        for name, arr in gen.store.params.items():
            if name.endswith(".b"):
                assert (arr == 0.0).all()
            else:
                assert np.abs(arr).max() <= 0.05


    def test_layers_state_the_initialized_shapes(self):
        cfg = small_cfg(4)
        for net in (build_generator(cfg), build_critic(cfg)):
            got = {name: arr.shape for name, arr in net.store.params.items()}
            assert list(got.items()) == list(param_shapes(net.layers()).items())


class TestGenerate:
    def test_deterministic_sample(self):
        cfg = small_cfg(1)
        gen = build_generator(cfg)
        codes = sample_codes(cfg.latent, 1, np.random.default_rng(5))
        a = generate(gen, codes)
        b = generate(gen, codes)
        assert a.tobytes() == b.tobytes()

    def test_output_shape_and_bounds(self):
        cfg = small_cfg(2)
        gen = build_generator(cfg)
        codes = sample_codes(cfg.latent, 64, np.random.default_rng(6))
        out = generate(gen, codes)
        assert out.shape == (64, cfg.data_dim)
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_batch_mismatch_rejected(self):
        gen = build_generator(small_cfg(1))
        codes = Codes(z=np.zeros((2, 4)), cat_onehot=[np.eye(3)], cont=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            generate(gen, codes)

    def test_width_mismatch_rejected(self):
        cfg = small_cfg(1)
        gen = build_generator(cfg)
        other = LatentSpec(z_dim=9, categorical=(3,), continuous=((-1.0, 1.0),))
        codes = sample_codes(other, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate(gen, codes)


class TestCriticScore:
    def test_zero_weights_score_equals_bias(self):
        cfg = small_cfg(1)
        critic = build_critic(cfg)
        for name in critic.store.params:
            critic.store.params[name][...] = 0.0
        critic.store.params["dis.score.b"][...] = 0.25
        scores = critic_score(critic, np.random.default_rng(1).normal(size=(6, 5)))
        np.testing.assert_array_equal(scores, np.full((6, 1), 0.25))

    def test_identical_rows_identical_scores(self):
        critic = build_critic(small_cfg(4))
        row = np.random.default_rng(2).uniform(-1, 1, size=5)
        scores = critic_score(critic, np.tile(row, (8, 1)))
        assert np.unique(scores).size == 1

    def test_matches_straight_line_recomputation(self):
        cfg = small_cfg(5)
        critic = build_critic(cfg)
        x = np.random.default_rng(3).uniform(-1, 1, size=(7, 5))
        p = critic.store.params

        def leaky(v):
            return np.where(v > 0, v, 0.01 * v)

        h = leaky(leaky(x @ p["dis.h0.W"] + p["dis.h0.b"]) @ p["dis.h1.W"] + p["dis.h1.b"])
        want = h @ p["dis.score.W"] + p["dis.score.b"]
        np.testing.assert_allclose(critic_score(critic, x), want, rtol=0, atol=0)

    def test_shape_mismatch_rejected(self):
        critic = build_critic(small_cfg(1))
        with pytest.raises(ValueError):
            critic_score(critic, np.zeros((4, 7)))


class TestQPosterior:
    def test_softmax_rows_sum_to_one(self):
        critic = build_critic(small_cfg(6))
        post = q_posterior(critic, np.random.default_rng(4).uniform(-1, 1, size=(16, 5)))
        probs = softmax(post.cat_logits[0])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert post.cont_means.shape == (16, 1)

    def test_zero_head_gives_uniform_posterior(self):
        spec = LatentSpec(z_dim=4, categorical=(10,), continuous=())
        cfg = NetConfig(latent=spec, data_dim=5, gen_hidden=(8,), trunk_hidden=(8, 8))
        critic = build_critic(cfg)
        critic.store.params["q.cat0.W"][...] = 0.0
        critic.store.params["q.cat0.b"][...] = 0.0
        post = q_posterior(critic, np.random.default_rng(5).uniform(-1, 1, size=(4, 5)))
        np.testing.assert_allclose(softmax(post.cat_logits[0]), 0.1, atol=0)

    def test_trunk_is_shared_storage(self):
        critic = build_critic(small_cfg(8))
        x = np.random.default_rng(6).uniform(-1, 1, size=(4, 5))
        before = q_posterior(critic, x).cat_logits[0]
        # a critic-path update must be observed by the recovery head
        critic.store.params["dis.h0.W"][...] += 0.01
        after = q_posterior(critic, x).cat_logits[0]
        assert before.tobytes() != after.tobytes()
        assert set(critic.trunk_names()) < set(critic.critic_path_names())


class TestCheckpoint:
    def privacy_spec(self):
        return PrivacySpec.calibrated(2.2, 1e-5, 0.01, 64 / 60000, 5)

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_cfg(9)
        gen, critic = build_generator(cfg), build_critic(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, gen, critic, self.privacy_spec())
        bundle = load_checkpoint(path)
        for name, arr in gen.store.params.items():
            assert bundle.gen.store.params[name].tobytes() == arr.tobytes()
        for name, arr in critic.store.params.items():
            assert bundle.critic.store.params[name].tobytes() == arr.tobytes()
        assert bundle.latent == cfg.latent
        assert bundle.privacy == self.privacy_spec()

    def test_loaded_nets_generate(self, tmp_path):
        cfg = small_cfg(10)
        gen, critic = build_generator(cfg), build_critic(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, gen, critic, self.privacy_spec())
        bundle = load_checkpoint(path)
        codes = sample_codes(cfg.latent, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(generate(bundle.gen, codes), generate(gen, codes))

    def test_loaded_nets_run_without_gradient_slots(self, tmp_path):
        cfg = small_cfg(12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg), self.privacy_spec())
        bundle = load_checkpoint(path)
        x = generate(bundle.gen, sample_codes(cfg.latent, 3, np.random.default_rng(0)))
        q_posterior(bundle.critic, x)
        assert bundle.gen.store._grads is None and bundle.critic.store._grads is None

    def test_truncated_file_rejected(self, tmp_path):
        cfg = small_cfg(11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg), self.privacy_spec())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = small_cfg(12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg), self.privacy_spec())
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        cfg = small_cfg(13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg), self.privacy_spec())
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_nonprivate_spec_round_trip(self, tmp_path):
        cfg = small_cfg(14)
        spec = PrivacySpec.calibrated(INF, 1e-5, 0.01, 0.5, 5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg), spec)
        assert load_checkpoint(path).privacy == spec

    def test_wrong_shape_rejected(self, tmp_path):
        cfg = small_cfg(15)
        critic = build_critic(cfg)
        critic.store.params["q.cat0.W"] = np.zeros((8, 4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), critic, self.privacy_spec())
        with pytest.raises(CheckpointError, match="q.cat0.W"):
            load_checkpoint(path)

    def test_missing_head_rejected(self, tmp_path):
        cfg = small_cfg(16)
        critic = build_critic(cfg)
        del critic.store.params["q.cont.b"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), critic, self.privacy_spec())
        with pytest.raises(CheckpointError, match="names"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["gen.out.W", "gen.h0.W", "dis.h1.W"])
    def test_rank_one_weight_rejected(self, tmp_path, name):
        cfg = small_cfg(17)
        gen, critic = build_generator(cfg), build_critic(cfg)
        store = gen.store if name.startswith("gen.") else critic.store
        store.params[name] = store.params[name].ravel()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, gen, critic, self.privacy_spec())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def with_spec_block(blob: bytes, edit) -> bytes:
    """The checkpoint with its trailing spec block replaced by ``edit(block)``."""
    start = blob.index(b"latent.z_dim=")
    block = edit(blob[start:])
    return blob[:start - 4] + struct.pack("<I", len(block)) + block


class TestCheckpointTypedErrors:
    def saved(self, tmp_path, cfg=None):
        cfg = cfg or small_cfg(18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_generator(cfg), build_critic(cfg),
                        PrivacySpec.calibrated(2.2, 1e-5, 0.01, 64 / 60000, 5))
        return path

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b"privacy.sigma=", b"privacy.sigmx="),
        lambda b: b.replace(b"latent.z_dim=4\n", b""),
        lambda b: b.replace(b"latent.continuous=-1.0:1.0", b"latent.continuous=5"),
        lambda b: b.replace(b"latent.z_dim=4", b"latent.z_dim=\xff"),
        lambda b: b + b"latent.junk\n",
        lambda b: b + b"privacy.whatever=3\n",
        lambda b: b.replace(b"latent.continuous=-1.0:1.0", b"latent.continuous=-inf:inf"),
        lambda b: b.replace(b"latent.continuous=-1.0:1.0", b"latent.continuous=0.0:inf"),
    ], ids=["no-sigma", "no-z_dim", "continuous-5", "non-utf8", "no-equals", "unknown-key",
            "continuous-unbounded", "continuous-infinite-width"])
    def test_malformed_spec_block_is_a_checkpoint_error(self, tmp_path, edit):
        path = self.saved(tmp_path)
        path.write_bytes(with_spec_block(path.read_bytes(), edit))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        out = str(tmp_path / "sweep")
        assert main(["generate", "--checkpoint", str(path), "--out", out]) == EXIT_VALIDATION

    def test_zero_width_hidden_layer_is_a_checkpoint_error(self, tmp_path):
        cfg = small_cfg(19)
        gen, critic = build_generator(cfg), build_critic(cfg)
        gen.store.params["gen.h0.W"] = np.zeros((gen.input_width, 0))
        gen.store.params["gen.h0.b"] = np.zeros(0)
        gen.store.params["gen.h1.W"] = np.zeros((0, 8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, gen, critic, PrivacySpec.calibrated(INF, 1e-5, 0.01, 0.5, 5))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_repeated_tensor_name_is_a_checkpoint_error(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        magic, version, count = struct.unpack_from("<4sII", blob)
        end = blob.index(b"latent.z_dim=") - 4  # the tensors end at the spec block's length
        again = struct.pack("<H", 9) + b"gen.out.b" + struct.pack("<BI", 1, 5) + bytes(8 * 5)
        path.write_bytes(struct.pack("<4sII", magic, version, count + 1) + blob[12:end]
                         + again + blob[end:])
        with pytest.raises(CheckpointError, match="repeated tensor name 'gen.out.b'"):
            load_checkpoint(path)

    def test_non_utf8_parameter_name_is_a_checkpoint_error(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"gen.h0.W", b"gen.h0.\xff", 1))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec", [
        LatentSpec(z_dim=3, categorical=(), continuous=((-1.0, 1.0),)),
        LatentSpec(z_dim=3, categorical=(4, 2), continuous=()),
        LatentSpec(z_dim=3, categorical=(), continuous=()),
    ])
    def test_latent_spec_round_trips_with_empty_code_lists(self, tmp_path, spec):
        cfg = NetConfig(latent=spec, data_dim=5, gen_hidden=(6,), trunk_hidden=(6,))
        assert load_checkpoint(self.saved(tmp_path, cfg)).latent == spec


# Deterministic examples and no example database written to the tree.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory) -> bytes:
    cfg = small_cfg(20)
    path = tmp_path_factory.mktemp("valid") / "model.ckpt"
    save_checkpoint(path, build_generator(cfg), build_critic(cfg),
                    PrivacySpec.calibrated(2.2, 1e-5, 0.01, 64 / 60000, 5))
    return path.read_bytes()


def _load_or_checkpoint_error(tmp_path_factory, blob: bytes) -> None:
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


class TestCheckpointProperties:
    @PROPERTY
    @given(data=st.data())
    def test_truncated_checkpoint_raises_only_checkpoint_error(self, tmp_path_factory,
                                                               valid_checkpoint, data):
        cut = data.draw(st.integers(0, len(valid_checkpoint) - 1))
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        path.write_bytes(valid_checkpoint[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @PROPERTY
    @given(data=st.data())
    def test_bit_flipped_checkpoint_loads_or_raises_checkpoint_error(self, tmp_path_factory,
                                                                     valid_checkpoint, data):
        blob = bytearray(valid_checkpoint)
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(0, 7)), min_size=1, max_size=3))
        for pos, bit in flips:
            blob[pos] ^= 1 << bit
        _load_or_checkpoint_error(tmp_path_factory, bytes(blob))

    @PROPERTY
    @given(data=st.data())
    def test_overwritten_span_loads_or_raises_checkpoint_error(self, tmp_path_factory,
                                                               valid_checkpoint, data):
        start = data.draw(st.integers(0, len(valid_checkpoint) - 1))
        junk = data.draw(st.binary(min_size=1, max_size=64))
        blob = valid_checkpoint[:start] + junk + valid_checkpoint[start + len(junk):]
        _load_or_checkpoint_error(tmp_path_factory, blob)
