import hashlib
import math
import os
import platform
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdp import cli
from imdp import train as train_module
from imdp.cli import (_DEFAULTS, ConfigError, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION,
                      build_parser, load_dataset, main, parse_config)
from imdp.data import MIXTURE_MAX_N, DataFormatError, Dataset, IdxFeatures
from imdp.latent import LatentSpec
from imdp.nets import NetConfig, build_critic, build_generator, save_checkpoint
from imdp.privacy import INF, PrivacySpec, calibrate_sigma
from imdp.train import TrainConfig

INF_SPELLINGS = ["inf", "INF", "Infinity"]


class TestParseConfig:
    def test_empty_config_gives_documented_defaults(self):
        resolved = parse_config(None)
        cfg = resolved.train_config()
        assert cfg.batch == 64
        assert cfg.n_d == 5
        assert cfg.delta == 1e-5
        assert cfg.c_p == 0.01
        assert cfg.epsilon == INF
        assert cfg.latent == LatentSpec(z_dim=62, categorical=(10,),
                                        continuous=((-1.0, 1.0),))
        # every field: the CLI's string defaults cannot drift from TrainConfig's
        assert cfg == TrainConfig(n_g=1000)
        assert resolved.get("train.dataset") == _DEFAULTS["train.dataset"]

    def test_infinite_epsilon_resolves_to_zero_sigma(self):
        resolved = parse_config(None, {"privacy.epsilon": "inf"})
        cfg = resolved.train_config()
        assert calibrate_sigma(cfg.epsilon, cfg.delta, cfg.batch / 60000, cfg.n_d) == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"privacy.epsilon": "-1"})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.wat=1\n")
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(str(path))

    def test_type_error_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.batch=sixty-four\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_sections_prefix_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nbatch=32\n[privacy]\nepsilon=2.2\n")
        cfg = parse_config(str(path)).train_config()
        assert cfg.batch == 32
        assert cfg.epsilon == 2.2

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.batch=32\n")
        resolved = parse_config(str(path), {"train.batch": "16"})
        assert resolved.train_config().batch == 16

    def test_canonical_text_replays(self, tmp_path):
        resolved = parse_config(None, {"train.seed": "9"})
        path = tmp_path / "config.resolved"
        path.write_text(resolved.canonical_text())
        again = parse_config(str(path))
        assert again.canonical_text() == resolved.canonical_text()
        assert again.config_hash() == resolved.config_hash()

    def test_delta_bounds_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"privacy.delta": "1.5"})

    @pytest.mark.parametrize("text", INF_SPELLINGS)
    def test_every_float_spelling_of_inf_gives_zero_sigma(self, text):
        cfg = parse_config(None, {"privacy.epsilon": text}).train_config()
        assert cfg.epsilon == INF
        assert calibrate_sigma(cfg.epsilon, cfg.delta, cfg.batch / 60000, cfg.n_d) == 0.0

    @pytest.mark.parametrize("key,value", [("privacy.epsilon", "nan"), ("privacy.clip", "nan"),
                                           ("privacy.clip", "0"), ("privacy.delta", "0")])
    def test_privacy_range_rules_apply_at_parse_time(self, key, value):
        with pytest.raises(ConfigError):
            parse_config(None, {key: value})

    @pytest.mark.parametrize("spec", [
        LatentSpec(z_dim=8, categorical=(8, 3), continuous=((-1.0, 1.0), (0.0, 2.5))),
        LatentSpec(z_dim=3, categorical=(4,), continuous=()),
        LatentSpec(z_dim=3, categorical=(), continuous=((-2.0, 0.5),)),
    ])
    def test_latent_spec_round_trips_through_config_text(self, spec):
        resolved = parse_config(None, {
            "latent.z_dim": str(spec.z_dim),
            "latent.cat": ",".join(str(k) for k in spec.categorical),
            "latent.cont": ",".join(f"{lo}:{hi}" for lo, hi in spec.continuous)})
        assert resolved.train_config().latent == spec

    def test_latent_spec_without_codes_rejected(self):
        with pytest.raises(ConfigError, match="training needs at least one latent code"):
            parse_config(None, {"latent.z_dim": "5", "latent.cat": "", "latent.cont": ""})

    def test_malformed_continuous_code_rejected(self):
        with pytest.raises(ConfigError, match="low:high"):
            parse_config(None, {"latent.cont": "5"})

    def test_non_utf8_config_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"train.seed=\xff\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_malformed_checkpoint_every_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(None, {"train.checkpoint_every": "often"})


# Deterministic examples and no example database written to the tree.
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(_DEFAULTS)), st.text(max_size=12)).map("=".join),
    st.text(max_size=24))


class TestParseConfigProperties:
    @PROPERTY
    @given(blob=st.binary(max_size=200))
    def test_random_config_bytes_raise_only_config_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_bytes(blob)
        try:
            parse_config(str(path))
        except ConfigError:
            pass

    @PROPERTY
    @given(lines=st.lists(CONFIG_LINE, max_size=6))
    def test_random_key_value_text_raises_only_config_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        try:
            parse_config(str(path))
        except ConfigError:
            pass


class TestLoadDataset:
    def test_mixture_descriptor(self):
        ds = load_dataset("mixture:k=4,n=100,std=0.05,seed=3")
        assert ds.n == 100
        assert ds.y is not None

    def test_idx_descriptor(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        with open(images, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 3, 2, 2))
            f.write(bytes(range(12)))
        with open(labels, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 3))
            f.write(bytes([0, 1, 2]))
        ds = load_dataset(f"idx:{images},labels={labels}")
        assert ds.n == 3 and ds.dim == 4
        np.testing.assert_array_equal(ds.y, [0, 1, 2])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            load_dataset("csv:whatever")

    def test_malformed_mixture_rejected(self):
        with pytest.raises(ConfigError):
            load_dataset("mixture:k=4")

    @pytest.mark.parametrize("path", ["missing.idx", ".", "nul\x00byte", "lone\ud800"])
    def test_unreadable_idx_path_is_a_config_error(self, tmp_path, path):
        with pytest.raises(ConfigError, match="cannot read dataset file"):
            load_dataset(f"idx:{tmp_path / path}")


def _write_idx(directory, images, labels=None):
    """IDX image (and label) files in the published layout; returns the descriptor."""
    n, rows, cols = images.shape
    path = directory / "images.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes())
    if labels is None:
        return f"idx:{path}"
    (directory / "labels.idx").write_bytes(struct.pack(">II", 0x00000801, len(labels))
                                           + labels.astype(np.uint8).tobytes())
    return f"idx:{path},labels={directory / 'labels.idx'}"


@pytest.fixture(scope="module")
def descriptor_dir(tmp_path_factory):
    """A valid image file, a label file of another length, and a directory."""
    root = tmp_path_factory.mktemp("descriptors")
    _write_idx(root, np.zeros((3, 2, 2), dtype=np.uint8), np.arange(5))
    (root / "sub").mkdir()
    return root


# Mixture sizes stay small or beyond the caps, so no example builds a large array.
DESCRIPTOR_VALUE = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(MIXTURE_MAX_N + 1, 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "0x10", "1_0", "\x00"]),
    st.text(max_size=4))
MIXTURE_SIZE = st.one_of(st.integers(2, 40).map(str), DESCRIPTOR_VALUE)
MIXTURE_PART = st.one_of(
    st.tuples(st.sampled_from(["k", "n", "radius", "std", "seed", "labels"]),
              DESCRIPTOR_VALUE).map("=".join),
    st.text(max_size=6))
IDX_NAME = st.one_of(
    st.sampled_from(["images.idx", "labels.idx", "sub", "missing", "", "..", "\x00", "\ud800"]),
    st.text(alphabet=st.characters(blacklist_characters="/"), max_size=8))


class TestLoadDatasetProperties:
    """Descriptor text raises ConfigError or DataFormatError and nothing else."""

    @PROPERTY
    @given(k=MIXTURE_SIZE, n=MIXTURE_SIZE, parts=st.lists(MIXTURE_PART, max_size=4))
    def test_mixture_descriptors(self, k, n, parts):
        try:
            load_dataset(",".join([f"mixture:k={k}", f"n={n}", *parts]))
        except (ConfigError, DataFormatError):
            pass

    @PROPERTY
    @given(images=IDX_NAME, labels=st.one_of(st.none(), IDX_NAME),
           key=st.sampled_from(["labels=", "labels", "label="]))
    def test_idx_descriptors(self, descriptor_dir, images, labels, key):
        text = f"idx:{descriptor_dir / images}"
        if labels is not None:
            text += f",{key}{descriptor_dir / labels}"
        try:
            load_dataset(text)
        except (ConfigError, DataFormatError):
            pass

    @PROPERTY
    @given(text=st.text(max_size=24))
    def test_random_text(self, text):
        try:
            load_dataset(text)
        except (ConfigError, DataFormatError):
            pass


FAST_TRAIN_FLAGS = [
    "--ng", "2", "--batch", "8",
    "--dataset", "mixture:k=4,n=64,std=0.1,seed=1",
]


def fast_config_file(tmp_path, **extra):
    lines = ["latent.z_dim=4", "latent.cat=4", "latent.cont=-1:1",
             "net.gen_hidden=8", "net.trunk_hidden=8",
             "train.batch=8", "train.ng=2",
             "train.dataset=mixture:k=4,n=64,std=0.1,seed=1"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCmdTrain:
    def test_single_iteration_writes_one_record(self, tmp_path):
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        run_dir = next(out.iterdir())
        lines = (run_dir / "metrics.log").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus one record
        assert (run_dir / "manifest.txt").exists()
        assert (run_dir / "checkpoint.ckpt").exists()
        assert (run_dir / "timing.txt").exists()

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = fast_config_file(tmp_path, **{"train.ng": "3"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        resolved = next(out1.iterdir()) / "config.resolved"
        assert main(["train", "--config", str(resolved), "--out", str(out2)]) == EXIT_OK
        m1 = (next(out1.iterdir()) / "metrics.log").read_bytes()
        m2 = (next(out2.iterdir()) / "metrics.log").read_bytes()
        assert m1 == m2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["train", "--epsilon", "-2", "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "imdp: error: validation:" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["radius=nan", "std=nan", "std=inf",
                                        "n=99999999999"])
    def test_bad_mixture_parameters_exit_as_validation_errors(self, tmp_path, capsys,
                                                              params):
        code = main(["train", "--dataset", f"mixture:k=4,n=10,{params}",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert "imdp: error: validation:" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # a 1e300 generator step leaves weights whose next forward overflows
        cfg = fast_config_file(tmp_path, **{"train.lr_gen": "1e300", "train.ng": "3"})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "imdp: error: runtime: training failed at generator iteration 2\n")

    def test_nets_built_and_seeds_derived_once(self, tmp_path, monkeypatch):
        calls = {"build_generator": 0, "derive_seeds": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(train_module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(train_module, name, counted)
        cfg = fast_config_file(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == {"build_generator": 1, "derive_seeds": 1}

    def test_run_dir_taken_between_check_and_create_gets_the_next_suffix(
            self, tmp_path, monkeypatch):
        config_hash = "0123456789abcdef"
        (tmp_path / config_hash[:12]).mkdir()
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        path = cli._make_run_dir(str(tmp_path), config_hash)
        assert path == str(tmp_path / f"{config_hash[:12]}-1")
        assert os.path.isdir(path)

    def test_runs_started_together_get_distinct_run_dirs(self, tmp_path):
        n = 8
        start = threading.Barrier(n)
        paths, errors = [], []

        def make():
            start.wait(timeout=10)
            try:
                paths.append(cli._make_run_dir(str(tmp_path), "0123456789abcdef"))
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=make) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(paths) == sorted(
            str(tmp_path / ("0123456789ab" + (f"-{k}" if k else ""))) for k in range(n))

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        monkeypatch.setenv("IMDP_OUT", str(tmp_path / "envout"))
        assert main(["train", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "envout").exists()

    @pytest.mark.parametrize("extra", [
        {"net.gen_hidden": "0"},
        {"latent.cat": "", "latent.cont": ""},
        {"train.batch": "500"},
    ], ids=["zero-width", "no-codes", "batch-over-rows"])
    def test_rejected_run_leaves_the_out_root_empty(self, tmp_path, extra):
        cfg = fast_config_file(tmp_path, **extra)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
        assert list(out.iterdir()) == []

    def test_no_codes_rejected_before_the_dataset_loads(self, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", loads.append)
        cfg = fast_config_file(tmp_path, **{"latent.cat": "", "latent.cont": ""})
        out = str(tmp_path / "out")
        assert main(["train", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert "training needs at least one latent code" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("cfg_file, flags, sigma, in_range", [
        ("golden", [], 0.431, "0"),
        ("fast", ["--epsilon", "0.1", "--batch", "16",
                  "--dataset", "mixture:k=4,n=1600,std=0.1,seed=1"], 1.517, "1"),
    ], ids=["eps-2.2-golden", "eps-0.1"])
    def test_manifest_says_what_the_calibration_covers(self, tmp_path, cfg_file, flags,
                                                        sigma, in_range):
        cfg = (os.path.join(os.path.dirname(__file__), "golden", "eps-2.2.cfg")
               if cfg_file == "golden" else fast_config_file(tmp_path))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--ng", "1", *flags,
                     "--out", str(out)]) == EXIT_OK
        manifest = dict(line.split("=", 1) for line in
                        (next(out.iterdir()) / "manifest.txt").read_text().splitlines()
                        if "=" in line and not line.startswith("#"))
        assert float(manifest["sigma"]) == pytest.approx(sigma, abs=5e-4)
        assert manifest["calibration_scope"] == "generator_iteration"
        assert manifest["calibration_in_range"] == in_range

    @pytest.mark.parametrize("epsilon, ng", [("2.2", "0"), ("2.2", "2"), ("inf", "0"),
                                             ("inf", "2")])
    def test_manifest_reads_the_accountant_the_run_ended_with(self, tmp_path, epsilon, ng):
        cfg = fast_config_file(tmp_path, **{"privacy.epsilon": epsilon, "train.ng": ng})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        run_dir = next(out.iterdir())
        manifest = dict(line.split("=", 1) for line in
                        (run_dir / "manifest.txt").read_text().splitlines()
                        if "=" in line and not line.startswith("#"))
        spent = manifest["accountant_eps_spent"]
        records = (run_dir / "metrics.log").read_text().splitlines()[1:]
        if epsilon == "inf":
            assert spent == "inf"
        elif ng == "0":
            # no step taken: every log-moment is 0, so epsilon is log(1/delta)/32
            assert records == []
            assert float(spent) == pytest.approx(math.log(1e5) / 32, rel=1e-12)
        else:
            assert spent == records[-1].split()[-1]

    @pytest.mark.parametrize("extra, flags, key", [
        ({"train.lr_critic": "nan"}, [], "lr_critic"),
        ({"train.lr_gen": "inf"}, [], "lr_gen"),
        ({"train.lambda_cat": "nan"}, [], "lambda_cat"),
        ({"train.lambda_cont": "inf"}, [], "lambda_cont"),
        ({}, ["--seed", "-1"], "seed"),
        ({"train.checkpoint_every": "-1"}, [], "train.checkpoint_every"),
        ({"latent.cont": "-inf:inf"}, [], "continuous code"),
        ({"latent.cont": "0:inf"}, [], "continuous code"),
    ], ids=["lr_critic-nan", "lr_gen-inf", "lambda_cat-nan", "lambda_cont-inf",
            "seed-negative", "checkpoint_every-negative", "cont-unbounded",
            "cont-infinite-width"])
    def test_out_of_range_value_named_before_any_file(self, tmp_path, capsys,
                                                      extra, flags, key):
        cfg = fast_config_file(tmp_path, **extra)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["train", "--config", cfg, *flags, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert f"{key} must be" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_checkpoint_every(self, tmp_path):
        cfg = fast_config_file(tmp_path, **{"train.ng": "4",
                                            "train.checkpoint_every": "2"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        run_dir = next(out.iterdir())
        assert (run_dir / "checkpoint-000002.ckpt").exists()
        assert (run_dir / "checkpoint-000004.ckpt").exists()


def _decode(images):
    return images.reshape(images.shape[0], -1).astype(np.float64) / 255.0 * 2.0 - 1.0


class TestIdxDigests:
    """Digests of IDX data equal the sha256 of the float64 decode, then the
    int64 labels, as when the features were held as a float64 matrix."""

    IMAGES = np.random.default_rng(31).integers(0, 256, size=(90, 4, 4), dtype=np.uint8)
    LABELS = np.random.default_rng(32).integers(0, 4, size=90)

    def test_train_manifest_dataset_digest(self, tmp_path):
        dataset = _write_idx(tmp_path, self.IMAGES, self.LABELS)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1", "train.dataset": dataset})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        want = hashlib.sha256(_decode(self.IMAGES).tobytes())
        want.update(self.LABELS.astype(np.int64).tobytes())
        manifest = (next(out.iterdir()) / "manifest.txt").read_text()
        assert f"dataset_sha256={want.hexdigest()}\n" in manifest

    def test_evaluate_test_split_digest(self, tmp_path, capsys):
        dataset = _write_idx(tmp_path, self.IMAGES, self.LABELS)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1", "train.dataset": dataset})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        assert main(["evaluate", "--model", f"inf={ckpt}", "--pair", "1,2",
                     "--dataset", dataset, "--per-class", "8", "--map-samples", "30",
                     "--epochs", "1", "--seed", "4", "--out", str(tmp_path)]) == EXIT_OK
        rest = np.random.default_rng(4).permutation(90)[30:]  # evaluate's held-out rows
        rest = rest[np.isin(self.LABELS[rest], (1, 2))]
        want = hashlib.sha256(_decode(self.IMAGES[rest]).tobytes())
        want.update(self.LABELS[rest].astype(np.int64).tobytes())
        manifest = (tmp_path / "utility-manifest.txt").read_text()
        assert f"test_split_sha256={want.hexdigest()}\n" in manifest


class TestEvaluateDecodesOnlyThePair:
    def test_peak_memory_is_below_the_held_out_decode(self, tmp_path, capsys):
        n, side, n_map = 3000, 28, 100
        images = np.random.default_rng(41).integers(0, 256, size=(n, side, side),
                                                    dtype=np.uint8)
        labels = np.arange(n) % 10  # the pair 3,8 is a fifth of the rows
        dataset = _write_idx(tmp_path, images, labels)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1", "train.dataset": dataset})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        argv = ["evaluate", "--model", f"inf={ckpt}", "--pair", "3,8", "--dataset", dataset,
                "--per-class", "8", "--map-samples", str(n_map), "--epochs", "1",
                "--out", str(tmp_path / "eval")]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # decoding every held-out row would take 18.2 MB on its own; the
        # pair's rows are a fifth of that
        held_out_decode = (n - n_map) * side * side * 8
        assert peak < images.nbytes + held_out_decode // 2

    def test_pair_absent_from_the_split_is_a_validation_error(self, tmp_path, capsys):
        images = np.zeros((40, 4, 4), dtype=np.uint8)
        dataset = _write_idx(tmp_path, images, np.arange(40) % 3)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1", "train.dataset": dataset})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        capsys.readouterr()
        assert main(["evaluate", "--model", f"inf={ckpt}", "--pair", "7,8",
                     "--dataset", dataset, "--map-samples", "10",
                     "--out", str(tmp_path / "eval")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "imdp: error: validation: test split holds no rows labeled 7 or 8\n")


def _save_model(path, eps, data_dim, hidden=(128, 128), seed=0,
                latent=LatentSpec(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),))):
    """A freshly initialized pair saved at privacy level ``eps``; the
    defaults are the CLI's default nets."""
    cfg = NetConfig(latent=latent, data_dim=data_dim, gen_hidden=hidden,
                    trunk_hidden=hidden, seed=seed)
    save_checkpoint(path, build_generator(cfg), build_critic(cfg),
                    PrivacySpec.calibrated(eps, 1e-5, 0.01, 0.1, 5))
    return str(path)


class TestEvaluateLoadsPerLevel:
    """Each checkpoint loads when its level runs and is dropped after it;
    the splits of an IDX dataset stay bytes until they are read."""

    def test_peak_holds_one_model(self, tmp_path, capsys):
        n, side = 200, 28
        images = np.random.default_rng(43).integers(0, 256, size=(n, side, side),
                                                    dtype=np.uint8)
        dataset = _write_idx(tmp_path, images, np.where(np.arange(n) % 2, 8, 3))
        models = [f"{eps!r}={_save_model(tmp_path / f'{eps}.ckpt', eps, side * side, seed=i)}"
                  for i, eps in enumerate((INF, 2.2))]
        store = os.path.getsize(tmp_path / "inf.ckpt")  # 1.97 MB of tensors, ~100 B of specs

        def peak(models):
            argv = ["evaluate", *[f"--model={m}" for m in models], "--pair", "3,8",
                    "--dataset", dataset, "--per-class", "8", "--map-samples", "40",
                    "--epochs", "1", "--out", str(tmp_path / "eval")]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(models[:1]), peak(models)
        # a level peaks while its checkpoint loads: the file's bytes and the
        # store they are copied into, beside the byte splits; scoring 160
        # decoded rows with the 64-unit classifier takes less.  Holding the
        # first model while the second loads would add a third store.
        assert one < 2 * store + 1_000_000
        assert two < one + store // 4

    @pytest.mark.parametrize("bad, code, message", [
        ("missing", EXIT_RUNTIME, "runtime: [Errno 2] No such file or directory: '{path}'"),
        ("corrupt", EXIT_VALIDATION, "validation: bad magic b'JUNK'"),
    ])
    def test_a_bad_later_checkpoint_fails_after_the_earlier_levels(
            self, tmp_path, capsys, trained_checkpoint, bad, code, message):
        path = tmp_path / "second.ckpt"
        if bad == "corrupt":
            path.write_bytes(b"JUNK" + bytes(8))
        out = tmp_path / "eval"
        capsys.readouterr()
        assert main(["evaluate", "--model", f"inf={trained_checkpoint}",
                     "--model", f"2.2={path}", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=200,std=0.1,seed=2",
                     "--per-class", "8", "--epochs", "1", "--out", str(out)]) == code
        assert capsys.readouterr().err == f"imdp: error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_splits_stay_bytes_and_report_as_decoded(self, tmp_path, capsys, monkeypatch):
        images = np.random.default_rng(44).integers(0, 256, size=(120, 4, 4), dtype=np.uint8)
        labels = np.random.default_rng(45).integers(0, 4, size=120)
        dataset = _write_idx(tmp_path, images, labels)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1", "train.dataset": dataset})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_OK
        ckpt = next((tmp_path / "runs").iterdir()) / "checkpoint.ckpt"
        seen = []
        curve = cli.utility_privacy_curve

        def decoded_curve(models, *, real_test, map_data, **kw):
            seen.append((real_test.x, map_data.x))
            return curve(models, real_test=decoded(real_test), map_data=decoded(map_data), **kw)

        def decoded(ds):
            return Dataset(np.asarray(ds.x), ds.y, source=ds.source)

        def run(out):
            assert main(["evaluate", "--model", f"inf={ckpt}", "--pair", "1,2",
                         "--dataset", dataset, "--per-class", "8", "--map-samples", "30",
                         "--epochs", "2", "--seed", "6", "--out", str(out)]) == EXIT_OK
            return [(out / name).read_bytes() for name in ("utility.csv", "utility-manifest.txt")]

        as_bytes = run(tmp_path / "bytes")
        monkeypatch.setattr(cli, "utility_privacy_curve", decoded_curve)
        assert run(tmp_path / "decoded") == as_bytes
        [(test_x, map_x)] = seen
        assert isinstance(test_x, IdxFeatures) and isinstance(map_x, IdxFeatures)
        assert map_x.shape == (30, 16)


class TestEvaluateChecksTheMapSplit:
    @pytest.mark.parametrize("pair", ["1,9", "9,1"])
    def test_pair_label_absent_from_the_map_split_rejected_before_loading(
            self, tmp_path, capsys, pair):
        images = np.random.default_rng(46).integers(0, 256, size=(300, 4, 4), dtype=np.uint8)
        dataset = _write_idx(tmp_path, images, np.arange(300) % 4)
        out = tmp_path / "eval"
        # a checkpoint that does not exist would exit 2 if it were loaded
        assert main(["evaluate", "--model", f"inf={tmp_path / 'none.ckpt'}", "--pair", pair,
                     "--dataset", dataset, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "imdp: error: validation: map split holds no rows labeled 9\n")
        assert not out.exists()


class TestParserReuse:
    """One parser serves every ``main`` call of a process; nothing one call
    parses reaches the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_bad_argv_then_good_query(self, capsys):
        assert main(["accountant", "--steps", "3"]) == EXIT_VALIDATION  # no --q
        assert main(["accountant", "--q", "0.1", "--bogus"]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["accountant", "--sigma", "4.0", "--q", "1.0", "--steps", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "steps = 1\n" in out
        assert "spent_epsilon(delta=1e-05) = 1.23094\n" in out

    def test_models_do_not_carry_over(self, tmp_path, capsys):
        assert main(["evaluate", "--model", f"inf={tmp_path / 'a.ckpt'}",
                     "--model", f"2.2={tmp_path / 'b.ckpt'}", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=64,std=0.1,seed=2"]) == EXIT_RUNTIME
        capsys.readouterr()
        assert main(["evaluate", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=64,std=0.1,seed=2"]) == EXIT_VALIDATION
        assert "at least one --model" in capsys.readouterr().err

    def test_train_flags_do_not_carry_over(self, tmp_path, capsys):
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        assert main(["train", "--config", cfg, "--epsilon", "-1", "--seed", "7",
                     "--nd", "3", "--out", str(tmp_path / "rejected")]) == EXIT_VALIDATION
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        resolved = (next(out.iterdir()) / "config.resolved").read_text().splitlines()
        assert {"privacy.epsilon=inf", "train.seed=0", "train.nd=5"} <= set(resolved)
        assert not (tmp_path / "rejected").exists()


class TestCmdGenerate:
    def test_fresh_checkpoint_sweeps(self, tmp_path):
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        gen_out = tmp_path / "sweep"
        assert main(["generate", "--checkpoint", str(ckpt), "--out", str(gen_out),
                     "--cont-steps", "4"]) == EXIT_OK
        table = (gen_out / "sweep.csv").read_text().strip().splitlines()
        assert len(table) == 1 + 4 * 4

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["generate", "--checkpoint", str(tmp_path / "none.ckpt")])
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--cont-steps", "x", "cont-steps: expected integer, got 'x'"),
        ("--cont-steps", "1", "cont-steps must be >= 2, got 1"),
    ])
    def test_bad_flag_named_before_loading(self, tmp_path, capsys, flag, value, message):
        code = main(["generate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path / "sweep"), flag, value])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"imdp: error: validation: {message}\n"
        assert not (tmp_path / "sweep").exists()

    def test_overflowing_generator_prints_only_the_error_line(self, tmp_path):
        cfg = NetConfig(latent=LatentSpec(z_dim=4, categorical=(3,), continuous=((-1.0, 1.0),)),
                        data_dim=5, gen_hidden=(8, 8), trunk_hidden=(8, 8))
        gen = build_generator(cfg)
        for arr in gen.store.params.values():
            arr *= 1e200
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, gen, build_critic(cfg),
                        PrivacySpec.calibrated(INF, 1e-5, 0.01, 0.5, 5))
        # a fresh process: numpy's warnings reach stderr as a user sees them
        run = subprocess.run([sys.executable, "-m", "imdp", "generate", "--checkpoint",
                              str(ckpt), "--out", str(tmp_path / "sweep")],
                             capture_output=True, text=True)
        assert run.returncode == EXIT_RUNTIME
        assert run.stderr == "imdp: error: runtime: node 7 (affine): non-finite value\n"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator")
    def test_repeated_generate_does_not_fault_in_fresh_pages(self, tmp_path):
        # A fresh process that never trains: only the entry point can raise
        # glibc's malloc thresholds there.
        code = f"""
import contextlib, io, resource
from imdp.cli import main
from imdp.latent import LatentSpec
from imdp.nets import NetConfig, build_critic, build_generator, save_checkpoint
from imdp.privacy import PrivacySpec
cfg = NetConfig(latent=LatentSpec(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),)),
                data_dim=784)
ckpt = {str(tmp_path / "model.ckpt")!r}
save_checkpoint(ckpt, build_generator(cfg), build_critic(cfg),
                PrivacySpec.calibrated(float("inf"), 1e-5, 0.01, 64 / 60000, 5))
argv = ["generate", "--checkpoint", ckpt, "--out", {str(tmp_path)!r}]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        main(argv)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        # ~1100 per call when each load's and sweep's memory goes back to the kernel
        assert float(out) < 100.0


class TestCheckpointWithoutCategoricalCode:
    """One continuous code is enough to train, but neither the sweep nor
    the label -> category map has a category to read."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        cfg = fast_config_file(tmp_path, **{"latent.cat": "", "train.ng": "1"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return str(next(out.iterdir()) / "checkpoint.ckpt")

    def test_generate_exits_1(self, tmp_path, capsys, ckpt):
        capsys.readouterr()
        code = main(["generate", "--checkpoint", ckpt, "--out", str(tmp_path / "sweep")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "imdp: error: validation: sweep needs a categorical code\n")
        assert not (tmp_path / "sweep").exists()

    def test_evaluate_exits_1(self, tmp_path, capsys, ckpt):
        capsys.readouterr()
        code = main(["evaluate", "--model", f"inf={ckpt}", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=200,std=0.1,seed=2",
                     "--per-class", "8", "--epochs", "1", "--out", str(tmp_path / "eval")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == ("imdp: error: validation: the label -> "
                                           "category map needs a categorical code\n")
        assert not (tmp_path / "eval").exists()


class TestCmdEvaluate:
    def test_end_to_end_report(self, tmp_path, capsys):
        cfg = fast_config_file(tmp_path, **{"train.ng": "2"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        eval_out = tmp_path / "eval"
        code = main(["evaluate", "--model", f"inf={ckpt}", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=400,std=0.1,seed=2",
                     "--per-class", "20", "--epochs", "1",
                     "--out", str(eval_out)])
        assert code == EXIT_OK
        csv = (eval_out / "utility.csv").read_text()
        assert csv.startswith("epsilon,train_source,accuracy")
        assert "inf," in csv

    @pytest.mark.parametrize("text", INF_SPELLINGS)
    def test_every_float_spelling_of_inf_is_the_nonprivate_model(self, tmp_path, capsys,
                                                                 text):
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        ckpt = next(out.iterdir()) / "checkpoint.ckpt"
        code = main(["evaluate", "--model", f"{text}={ckpt}", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=200,std=0.1,seed=2",
                     "--per-class", "8", "--epochs", "1", "--out", str(tmp_path / "eval")])
        assert code == EXIT_OK
        assert (tmp_path / "eval" / "utility.csv").read_text().splitlines()[1].startswith("inf,")

    def test_bad_model_flag_rejected(self, capsys):
        code = main(["evaluate", "--model", "nope", "--pair", "0,1",
                     "--dataset", "mixture:k=4,n=64,std=0.1,seed=2"])
        assert code == EXIT_VALIDATION


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    out = root / "out"
    assert main(["train", "--config", fast_config_file(root), "--out", str(out)]) == EXIT_OK
    return str(next(out.iterdir()) / "checkpoint.ckpt")


class TestCmdEvaluateRejectsBadFlags:
    """Each bad value exits 1 with a message naming what is wrong, and
    nothing is written under --out."""

    def reject(self, tmp_path, capsys, ckpt, extra, message):
        out = tmp_path / "eval"
        code = main(["evaluate", *(["--model", f"inf={ckpt}"] if ckpt else []),
                     "--pair", "0,1", "--dataset", "mixture:k=4,n=200,std=0.1,seed=2",
                     "--per-class", "8", "--epochs", "1", "--out", str(out), *extra])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"imdp: error: validation: {message}\n"
        assert not out.exists()

    def test_negative_epochs(self, tmp_path, capsys, trained_checkpoint):
        self.reject(tmp_path, capsys, trained_checkpoint, ["--epochs", "-1"],
                    "epochs must be >= 1, got -1")

    def test_negative_map_samples(self, tmp_path, capsys, trained_checkpoint):
        self.reject(tmp_path, capsys, trained_checkpoint, ["--map-samples", "-5"],
                    "map-samples must be >= 1, got -5")

    def test_zero_per_class(self, tmp_path, capsys, trained_checkpoint):
        self.reject(tmp_path, capsys, trained_checkpoint, ["--per-class", "0"],
                    "per-class must be >= 1, got 0")

    @pytest.mark.parametrize("eps", ["nan", "0", "-1", "-inf"])
    def test_model_epsilon_outside_the_epsilon_rule(self, tmp_path, capsys,
                                                    trained_checkpoint, eps):
        self.reject(tmp_path, capsys, None, [f"--model={eps}={trained_checkpoint}"],
                    "epsilon must be positive or infinite")

    def test_two_models_at_one_epsilon(self, tmp_path, capsys, trained_checkpoint):
        self.reject(tmp_path, capsys, trained_checkpoint,
                    ["--model", f"Infinity={trained_checkpoint}"],
                    "--model: two models at epsilon inf")

    @pytest.mark.parametrize("flag_eps, trained_eps", [("1.22", INF), ("inf", 2.2)])
    def test_model_epsilon_must_match_the_checkpoint(self, tmp_path, capsys,
                                                     flag_eps, trained_eps):
        # levels run from the highest epsilon down: the 5.5 level runs
        # before the mislabeled 1.22 one and after the mislabeled inf one
        small = dict(data_dim=2, hidden=(8,),
                     latent=LatentSpec(z_dim=4, categorical=(4,), continuous=((-1.0, 1.0),)))
        good = _save_model(tmp_path / "good.ckpt", 5.5, **small)
        path = _save_model(tmp_path / "m.ckpt", trained_eps, **small)
        self.reject(tmp_path, capsys, None,
                    ["--model", f"5.5={good}", "--model", f"{flag_eps}={path}"],
                    f"--model {float(flag_eps)!r}={path}: the checkpoint was trained at "
                    f"privacy.epsilon={trained_eps!r}")

    # a checkpoint that does not exist would exit 2 if it were loaded first

    def test_pair_of_one_label_rejected_before_loading(self, tmp_path, capsys):
        self.reject(tmp_path, capsys, str(tmp_path / "none.ckpt"), ["--pair", "3,3"],
                    "--pair needs two different labels, got 3,3")

    def test_negative_seed_rejected_before_loading(self, tmp_path, capsys):
        self.reject(tmp_path, capsys, str(tmp_path / "none.ckpt"), ["--seed", "-1"],
                    "seed must be >= 0, got -1")


class TestCmdAccountant:
    def test_prints_calibrated_sigma(self, capsys):
        code = main(["accountant", "--epsilon", "2.2", "--delta", "1e-5",
                     "--q", str(64 / 60000), "--nd", "5", "--steps", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sigma = 0.00735722" in out
        assert "spent_epsilon" in out

    def test_accounts_steps_with_explicit_sigma(self, capsys):
        code = main(["accountant", "--sigma", "4.0", "--q", "1.0",
                     "--delta", "1e-5", "--steps", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "steps = 1" in out
        assert "spent_epsilon(delta=1e-05) = 1.23094" in out

    def test_nonprivate_shortcut(self, capsys):
        code = main(["accountant", "--epsilon", "inf", "--q", "0.1"])
        assert code == EXIT_OK
        assert "non-private" in capsys.readouterr().out

    @pytest.mark.parametrize("text", INF_SPELLINGS)
    def test_every_float_spelling_of_inf_gives_zero_sigma(self, capsys, text):
        assert main(["accountant", "--epsilon", text, "--q", "0.1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "sigma = 0\nnon-private configuration; nothing to account\n"

    def test_calibration_error_is_a_validation_error(self, capsys):
        assert main(["accountant", "--epsilon", "-1", "--q", "0.1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "imdp: error: validation: epsilon must be positive or infinite\n"

    def test_missing_noise_information_rejected(self, capsys):
        assert main(["accountant", "--q", "0.1"]) == EXIT_VALIDATION

    def test_mnist_sampling_ratio_at_epsilon_5_5(self, capsys):
        from test_privacy import binomial_log_moment
        q, steps = 64 / 60000, 1000
        code = main(["accountant", "--epsilon", "5.5", "--q", repr(q), "--delta", "1e-5",
                     "--nd", "5", "--steps", str(steps)])
        assert code == EXIT_OK
        sigma = calibrate_sigma(5.5, 1e-5, q, 5)
        want = min((steps * max(binomial_log_moment(q, sigma, lam), 0.0) + math.log(1e5)) / lam
                   for lam in range(1, 33))
        assert f"spent_epsilon(delta=1e-05) = {want:.6g}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("delta", ["0", "1", "nan"])
    def test_bad_delta_with_sigma_rejected_before_any_output(self, capsys, delta):
        code = main(["accountant", "--q", "0.5", "--sigma", "1", "--steps", "1",
                     "--delta", delta])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "imdp: error: validation: delta must lie in (0, 1)\n"

    @pytest.mark.parametrize("flags", [["--q", "2", "--sigma", "1"],
                                       ["--q", "0.5", "--sigma", "nan"],
                                       ["--q", "0.5", "--sigma", "1e-200"]])
    def test_bad_q_or_sigma_rejected_before_any_output(self, capsys, flags):
        assert main(["accountant", "--steps", "1", *flags]) == EXIT_VALIDATION
        assert capsys.readouterr().out == ""

    def test_steps_beyond_float_range_rejected_before_any_output(self, capsys):
        code = main(["accountant", "--q", "0.5", "--sigma", "1", "--steps", "1" + "0" * 400])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "imdp: error: validation: steps must total at most 1.79769e+308\n"

    def test_sigma_beyond_float_range_rejected(self, capsys):
        code = main(["accountant", "--sigma", "1e-200", "--q", "0.5", "--steps", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("imdp: error: validation: ") and err.count("\n") == 1


class TestOutputContainment:
    def test_all_artifacts_under_run_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = fast_config_file(tmp_path, **{"train.ng": "1"})
        out = tmp_path / "only-here"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        entries = {p.name for p in tmp_path.iterdir()}
        assert entries == {"run.cfg", "only-here"}
