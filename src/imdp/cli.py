"""Operator surface: train / generate / evaluate / accountant subcommands.

Configuration is flat key=value text (optionally grouped under
[section] headers that prefix the keys); command-line flags override
file keys.  Every run writes a manifest plus a resolved-config file
that replays the run exactly, byte for byte in the metrics log.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import __version__
from .artifacts import read_kv, write_atomic
from .data import DataFormatError, Dataset, load_idx_images, load_idx_labels, synth_mixture
from .evaluation import code_sweep, dataset_sha256, pair_rows, utility_privacy_curve
from .latent import LatentSpec
from .nets import load_checkpoint, save_checkpoint
from .privacy import (LAMBDA_MAX, AccountantState, accumulate, calibrate_sigma, check_epsilon,
                      spent_epsilon)
from .train import TrainConfig, Trainer, keep_freed_heap

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


_DEFAULTS = {
    "train.ng": "1000",
    "train.batch": "64",
    "train.nd": "5",
    "train.lr_critic": "5e-5",
    "train.lr_gen": "1e-4",
    "train.lambda_cat": "1.0",
    "train.lambda_cont": "0.1",
    "train.seed": "0",
    "train.dataset": "mixture:k=8,n=8192,radius=0.75,std=0.05,seed=0",
    "train.checkpoint_every": "0",
    "privacy.epsilon": "inf",
    "privacy.delta": "1e-5",
    "privacy.clip": "0.01",
    "latent.z_dim": "62",
    "latent.cat": "10",
    "latent.cont": "-1:1",
    "net.gen_hidden": "128,128",
    "net.trunk_hidden": "128,128",
}

_FLAG_KEYS = {
    "seed": "train.seed",
    "epsilon": "privacy.epsilon",
    "delta": "privacy.delta",
    "clip": "privacy.clip",
    "nd": "train.nd",
    "ng": "train.ng",
    "batch": "train.batch",
    "dataset": "train.dataset",
}


def _to_int(key: str, value: str, least: int | None = None) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected integer, got {value!r}") from exc
    if least is not None and n < least:
        raise ConfigError(f"{key} must be >= {least}, got {n}")
    return n


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected number, got {value!r}") from exc


def _to_int_tuple(key: str, value: str) -> tuple[int, ...]:
    if not value.strip():
        return ()
    return tuple(_to_int(key, part) for part in value.split(","))


@dataclass(frozen=True)
class ResolvedConfig:
    """All keys materialized; hashable canonical text for the manifest."""

    values: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        return dict(self.values)[key]

    def canonical_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.values) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def train_config(self) -> TrainConfig:
        # each range rule is stated once, by the code that owns the value
        try:
            return TrainConfig(
                n_g=_to_int("train.ng", self.get("train.ng")),
                batch=_to_int("train.batch", self.get("train.batch")),
                n_d=_to_int("train.nd", self.get("train.nd")),
                lr_critic=_to_float("train.lr_critic", self.get("train.lr_critic")),
                lr_gen=_to_float("train.lr_gen", self.get("train.lr_gen")),
                lambda_cat=_to_float("train.lambda_cat", self.get("train.lambda_cat")),
                lambda_cont=_to_float("train.lambda_cont", self.get("train.lambda_cont")),
                epsilon=_to_float("privacy.epsilon", self.get("privacy.epsilon")),
                delta=_to_float("privacy.delta", self.get("privacy.delta")),
                c_p=_to_float("privacy.clip", self.get("privacy.clip")),
                seed=_to_int("train.seed", self.get("train.seed")),
                latent=LatentSpec.parse(self.get("latent.z_dim"), self.get("latent.cat"),
                                        self.get("latent.cont")),
                gen_hidden=_to_int_tuple("net.gen_hidden", self.get("net.gen_hidden")),
                trunk_hidden=_to_int_tuple("net.trunk_hidden", self.get("net.trunk_hidden")),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def checkpoint_every(self) -> int:
        return _to_int("train.checkpoint_every", self.get("train.checkpoint_every"), least=0)


def parse_config(path: str | None, overrides: dict[str, str] | None = None) -> ResolvedConfig:
    """Merge defaults, optional config file, and flag overrides; validate keys."""
    merged = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        try:
            file_kv = read_kv(text, path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        unknown = set(file_kv) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_kv)
    for key, value in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    resolved = ResolvedConfig(values=tuple(sorted(merged.items())))
    resolved.train_config()  # validate eagerly
    resolved.checkpoint_every()
    return resolved


def _read_idx(loader, path: str):
    """``loader(path)``, with a path that cannot be opened as a ``ConfigError``."""
    try:
        return loader(path)
    except DataFormatError:
        raise
    except (OSError, ValueError) as exc:  # missing file, a directory, NUL or lone surrogate
        raise ConfigError(f"cannot read dataset file {path!r}: {exc}") from exc


def load_dataset(descriptor: str) -> Dataset:
    """`mixture:k=..,n=..[,radius=..,std=..,seed=..]` or `idx:<images>[,labels=<path>]`."""
    kind, sep, rest = descriptor.partition(":")
    if not sep:
        raise ConfigError(f"dataset descriptor needs a kind prefix: {descriptor!r}")
    if kind == "mixture":
        params = {"radius": "0.75", "std": "0.05", "seed": "0"}
        for part in rest.split(","):
            key, psep, value = part.partition("=")
            if not psep or key not in ("k", "n", "radius", "std", "seed"):
                raise ConfigError(f"bad mixture parameter {part!r}")
            params[key] = value
        if "k" not in params or "n" not in params:
            raise ConfigError("mixture dataset needs k= and n=")
        return synth_mixture(k=_to_int("k", params["k"]), n=_to_int("n", params["n"]),
                             radius=_to_float("radius", params["radius"]),
                             std=_to_float("std", params["std"]),
                             seed=_to_int("seed", params["seed"]))
    if kind == "idx":
        images, _, labels_part = rest.partition(",")
        ds = _read_idx(load_idx_images, images)
        if labels_part:
            key, psep, value = labels_part.partition("=")
            if key != "labels" or not psep:
                raise ConfigError(f"bad idx parameter {labels_part!r}")
            labels = _read_idx(load_idx_labels, value)
            if labels.shape[0] != ds.n:
                raise ConfigError("label count does not match image count")
            ds = Dataset(ds.x, labels, source=ds.source)
        return ds
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _out_root(flag_value: str | None) -> str:
    return flag_value or os.environ.get("IMDP_OUT") or "runs"


def _make_run_dir(root: str, config_hash: str) -> str:
    """Make ``<hash12>``, or the first of ``<hash12>-1``, ``-2``, ... that
    ``os.makedirs`` creates, so runs started together never share one."""
    base = os.path.join(root, config_hash[:12])
    path, suffix = base, 0
    while True:
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            suffix += 1
            path = f"{base}-{suffix}"


def _write(path: str, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def _manifest_text(resolved: ResolvedConfig, entries: dict[str, str]) -> str:
    lines = [f"tool_version=imdp-{__version__}",
             f"config_hash={resolved.config_hash()}"]
    lines += [f"{k}={v}" for k, v in entries.items()]
    lines.append("")
    lines.append("# resolved configuration (replay with: imdp train --config config.resolved)")
    lines += [f"config.{k}={v}" for k, v in resolved.values]
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    resolved = parse_config(args.config, _flag_overrides(args))
    data = load_dataset(resolved.get("train.dataset"))
    # rejects the nets/data combination before any file exists
    trainer = Trainer(resolved.train_config(), data)
    every = resolved.checkpoint_every()
    run_dir = _make_run_dir(_out_root(args.out), resolved.config_hash())
    _write(os.path.join(run_dir, "config.resolved"), resolved.canonical_text())
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    def hook(i, trainer):
        if every and i % every == 0:
            save_checkpoint(os.path.join(run_dir, f"checkpoint-{i:06d}.ckpt"),
                            trainer.gen, trainer.critic, trainer.spec)

    result = trainer.run(on_iteration=hook)
    _write(os.path.join(run_dir, "metrics.log"), result.log.to_text())
    save_checkpoint(os.path.join(run_dir, "checkpoint.ckpt"),
                    result.gen, result.critic, trainer.spec)
    wall_lines = ["# per-iteration wall clock (ms); non-deterministic, kept out of metrics.log"]
    wall_lines += [f"{r.iteration} {r.wall_ms:.3f}" for r in result.log.records]
    _write(os.path.join(run_dir, "timing.txt"), "\n".join(wall_lines) + "\n")
    _write(os.path.join(run_dir, "manifest.txt"), _manifest_text(resolved, {
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_seconds": f"{result.wall_seconds:.3f}",
        "dataset_source": data.source,
        "dataset_sha256": dataset_sha256(data),
        **trainer.spec.manifest_entries(),
        "accountant_eps_spent": repr(trainer.eps_spent()),
        "metrics": "metrics.log",
        "checkpoint": "checkpoint.ckpt",
        "timing": "timing.txt",
    }))
    print(run_dir)
    return EXIT_OK


def cmd_generate(args) -> int:
    seed = _to_int("seed", args.seed, least=0)
    cont_steps = _to_int("cont-steps", args.cont_steps, least=2)
    bundle = load_checkpoint(args.checkpoint)
    grid = code_sweep(bundle.gen, seed=seed, cont_steps=cont_steps)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    d = bundle.gen.data_dim
    side = int(math.isqrt(d))
    if side * side == d and d >= 16:
        path = os.path.join(out_dir, "sweep.pgm")
        grid.to_pgm(path, side)
    else:
        path = os.path.join(out_dir, "sweep.csv")
        _write(path, grid.to_table())
    print(path)
    return EXIT_OK


class _Checkpoints(Mapping):
    """Epsilon -> (generator, critic), loaded from its checkpoint on each
    lookup, so an evaluation holds only the model of the level it runs.
    A checkpoint trained at another epsilon than its ``--model`` label is
    a ``ConfigError``."""

    def __init__(self, paths: dict[float, str]):
        self.paths = paths

    def __getitem__(self, eps: float):
        bundle = load_checkpoint(self.paths[eps])
        if bundle.privacy.epsilon != eps:
            raise ConfigError(f"--model {eps!r}={self.paths[eps]}: the checkpoint was "
                              f"trained at privacy.epsilon={bundle.privacy.epsilon!r}")
        return bundle.gen, bundle.critic

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


def cmd_evaluate(args) -> int:
    per_class = _to_int("per-class", args.per_class, least=1)
    map_samples = _to_int("map-samples", args.map_samples, least=1)
    epochs = _to_int("epochs", args.epochs, least=1)
    seed = _to_int("seed", args.seed, least=0)
    a, sep, b = args.pair.partition(",")
    if not sep:
        raise ConfigError("--pair expects two labels, e.g. 3,8")
    pair = (_to_int("pair", a), _to_int("pair", b))
    if pair[0] == pair[1]:
        raise ConfigError(f"--pair needs two different labels, got {args.pair}")
    paths = {}
    for item in args.model:
        eps_raw, sep, path = item.partition("=")
        if not sep:
            raise ConfigError(f"--model expects EPS=PATH, got {item!r}")
        eps = _to_float("model epsilon", eps_raw)
        check_epsilon(eps)
        if eps in paths:
            raise ConfigError(f"--model: two models at epsilon {eps!r}")
        paths[eps] = path
    if not paths:
        raise ConfigError("at least one --model EPS=PATH is required")
    real = load_dataset(args.dataset)
    if real.y is None:
        raise ConfigError("evaluation dataset needs labels")
    rng = np.random.default_rng(seed)
    order = rng.permutation(real.n)
    n_map = min(map_samples, real.n // 2)
    map_rows = order[:n_map]
    map_data = Dataset(real.x.take(map_rows, axis=0), real.y[map_rows],
                       source=f"{real.source}|map")
    # select the pair's held-out rows on indices; IDX rows stay bytes until read
    held_out = order[n_map:]
    held_out = held_out[pair_rows(real.y[held_out], pair)]
    test_data = Dataset(real.x.take(held_out, axis=0), real.y[held_out],
                        source=f"{real.source}|test")
    report = utility_privacy_curve(_Checkpoints(paths), pair=pair, real_test=test_data,
                                   map_data=map_data,
                                   per_class=per_class, epochs=epochs, seed=seed)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "utility.csv")
    _write(path, report.to_csv())
    _write(os.path.join(out_dir, "utility-manifest.txt"),
           f"tool_version=imdp-{__version__}\n"
           f"test_split_sha256={report.test_split_sha256}\n"
           f"spearman={report.spearman()!r}\n")
    sys.stdout.write(report.to_csv())
    return EXIT_OK


def cmd_accountant(args) -> int:
    delta = _to_float("delta", args.delta)
    q = _to_float("q", args.q)
    n_d = _to_int("nd", args.nd)
    steps = _to_int("steps", args.steps, least=0)
    if args.sigma is not None:
        sigma = _to_float("sigma", args.sigma)
        if sigma <= 0.0:
            raise ConfigError("sigma must be positive")
    elif args.epsilon is None:
        raise ConfigError("accountant needs --sigma or --epsilon")
    else:
        sigma = calibrate_sigma(_to_float("epsilon", args.epsilon), delta, q, n_d)
    if sigma == 0.0:
        print(f"sigma = {sigma:.6g}\nnon-private configuration; nothing to account")
        return EXIT_OK
    # every value is checked, delta by spent_epsilon, before anything is printed
    state = accumulate(AccountantState.create(q, sigma), steps)
    spent = spent_epsilon(state, delta)
    alphas = " ".join([f"{a:.6g}" for a in state.log_moments.tolist()])
    print(f"sigma = {sigma:.6g}\nsteps = {state.steps}\n"
          f"alpha(1..{LAMBDA_MAX}) = {alphas}\n"
          f"spent_epsilon(delta={delta:g}) = {spent:.6g}")
    return EXIT_OK


def _flag_overrides(args) -> dict[str, str]:
    values = {key: getattr(args, flag, None) for flag, key in _FLAG_KEYS.items()}
    return {key: str(value) for key, value in values.items() if value is not None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``imdp`` argument parser, built once per process.

    Parsing never changes it: ``parse_args`` fills a fresh ``Namespace``
    each call, and ``--model`` appends to a copy of its default list.
    """
    parser = argparse.ArgumentParser(
        prog="imdp",
        description="Train and probe differentially private code-conditioned generators.")
    parser.add_argument("--version", action="version", version=f"imdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", default=None, help="key=value config file")
    for flag in _FLAG_KEYS:
        p_train.add_argument(f"--{flag}", default=None)
    p_train.add_argument("--out", default=None, help="output root (default runs/ or $IMDP_OUT)")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="render a latent-code sweep from a checkpoint")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--cont-steps", default="10", dest="cont_steps")
    p_gen.add_argument("--seed", default="0")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="utility-vs-privacy classification report")
    p_eval.add_argument("--model", action="append", default=[],
                        help="EPS=CHECKPOINT, repeatable")
    p_eval.add_argument("--pair", required=True, help="two labels, e.g. 3,8")
    p_eval.add_argument("--dataset", required=True, help="labeled real dataset descriptor")
    p_eval.add_argument("--per-class", default="2000", dest="per_class")
    p_eval.add_argument("--map-samples", default="1000", dest="map_samples")
    p_eval.add_argument("--epochs", default="100")
    p_eval.add_argument("--seed", default="0")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_acct = sub.add_parser("accountant", help="print noise scale and privacy spend")
    p_acct.add_argument("--q", required=True)
    p_acct.add_argument("--sigma", default=None)
    p_acct.add_argument("--epsilon", default=None)
    p_acct.add_argument("--delta", default="1e-5")
    p_acct.add_argument("--nd", default="5")
    p_acct.add_argument("--steps", default="0")
    p_acct.set_defaults(func=cmd_accountant)
    return parser


def main(argv=None) -> int:
    keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"imdp: error: validation: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - single operator-facing boundary
        sys.stderr.write(f"imdp: error: runtime: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
