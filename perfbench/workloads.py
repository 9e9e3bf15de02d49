"""The four workloads: inputs made from the seed, set-up repetitions, a
timed phase of one kind of operation, and checks of the outputs.

Every workload sets up ``SETUP_REPS`` times; a repetition runs from the
workload's first call into ``imdp`` to the end of its first operation.
The repetitions are spread over the run: the timed phase is cut into
segments, one after each repetition, and segment k ends once the timed
phase has lasted k/segments of ``seconds``, finishing the round in
progress.  So set-up samples the machine's speed across the whole run,
as the timed operations do.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import oracles
from imdp import cli
from imdp.latent import LatentSpec
from imdp.train import TrainConfig, train
from tracer import OP

SETUP_REPS = 7
DELTA = 1e-5
N_D = 5
BATCH = 64


@dataclass
class Outcome:
    setup_s: list[float]
    op_s: list[float]            # wall time of each timed operation
    ok_ops: int                  # timed operations that succeeded
    attempted: int
    failed: int
    train_owns_op: bool
    round_size: int = 1          # operations per round of the timed phase
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    failures: set[str] = field(default_factory=set)  # what the failed operations reported


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: str
    tracer: object = None

    def child_seeds(self, n: int) -> list[int]:
        state = np.random.SeedSequence(self.seed).generate_state(n)
        return [int(s) for s in state]

    def enter_op(self):
        return self.tracer.enter(OP) if self.tracer is not None else None

    def exit_op(self, idx) -> None:
        if idx is not None:
            self.tracer.exit(idx)


def _check(checks, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- training workloads ---------------------------------------------------

class _Stop(Exception):
    """Raised from the iteration hook to end a training run early."""


class _Iterations:
    """``on_iteration`` hook timing each generator iteration from outside.
    The first iteration is set-up; after it, the hook keeps iterating for
    ``budget`` seconds (none by default), finishing the iteration in
    progress."""

    def __init__(self, ctx: Context, budget: float | None = None):
        self.ctx = ctx
        self.budget = budget
        self.marks: list[float] = []
        self.critic_losses: list[float] = []
        self.wdist_ok = True
        self.trainer = None
        self.deadline = math.inf
        self.span = None

    def __call__(self, i, trainer):
        now = perf_counter()
        self.ctx.exit_op(self.span)
        self.span = None
        self.marks.append(now)
        self.critic_losses.append(trainer.last_critic_loss)
        self.wdist_ok &= trainer.last_wdist == -trainer.last_critic_loss
        self.trainer = trainer
        if self.budget is None:
            return
        if i == 1:
            self.deadline = now + self.budget
        if now >= self.deadline:
            raise _Stop
        self.span = self.ctx.enter_op()


def _clip_holds(trainer_or_result, c_p: float) -> bool:
    critic = trainer_or_result.critic
    return all(np.abs(critic.store.params[n]).max() <= c_p
               for n in critic.critic_path_names())


def _train_workload(ctx: Context, descriptor: str, cfg: TrainConfig, check_iters: int,
                    check_data=None) -> tuple[Outcome, object, _Iterations]:
    """Set up SETUP_REPS times.  The first repetition trains
    ``check_iters`` iterations to the end, for the checks; each later one
    keeps iterating as one segment of the timed phase.
    ``check_data(dataset)`` runs on the first repetition's dataset.  Each
    dataset is dropped before the next load, so one is alive at a time
    and peak memory is the program's, not the benchmark's."""
    segments = SETUP_REPS - 1
    setups, op_s, segment_hooks = [], [], []
    check_result = None
    data_ok = True
    for rep in range(SETUP_REPS):
        first = rep == 0
        if first:
            hook = _Iterations(ctx)
            run_cfg = replace(cfg, n_g=check_iters)
        else:
            hook = _Iterations(ctx, budget=rep * ctx.seconds / segments - sum(op_s))
            run_cfg = replace(cfg, n_g=10 ** 9)
        t0 = perf_counter()
        data = cli.load_dataset(descriptor)
        try:
            result = train(run_cfg, data, on_iteration=hook)
        except _Stop:
            result = None
        setups.append(hook.marks[0] - t0)
        if first:
            check_result = result
            if check_data is not None:
                data_ok = check_data(data)
        else:
            op_s.extend(np.diff(hook.marks))
            segment_hooks.append(hook)
        if rep < SETUP_REPS - 1:
            hook.trainer = None  # it holds this repetition's dataset
        del data, result
        gc.collect()
    timed = segment_hooks[-1]
    outcome = Outcome(setup_s=setups, op_s=op_s, ok_ops=len(op_s),
                      attempted=sum(len(h.marks) for h in segment_hooks), failed=0,
                      train_owns_op=True)
    log = check_result.log
    losses = list(log.series("critic_loss"))
    checks = outcome.checks
    if check_data is not None:
        _check(checks, "loaded features equal the written bytes", data_ok)
    _check(checks, "every timed segment replays the check run",
           all(h.critic_losses[:check_iters] == losses[:len(h.critic_losses)]
               for h in segment_hooks))
    _check(checks, "wdist equals -critic_loss",
           all(h.wdist_ok for h in segment_hooks)
           and bool(np.all(log.series("wdist") == -log.series("critic_loss"))))
    _check(checks, "critic-path weights within +-c_p",
           _clip_holds(timed.trainer, cfg.c_p) and _clip_holds(check_result, cfg.c_p))
    return outcome, check_result, timed


def trend_private(ctx: Context) -> Outcome:
    data_seed, train_seed = ctx.child_seeds(2)
    epsilon = 1.22
    spec = LatentSpec(z_dim=8, categorical=(8,), continuous=((-1.0, 1.0),))
    cfg = TrainConfig(n_g=1, batch=BATCH, n_d=N_D, seed=train_seed, epsilon=epsilon,
                      delta=DELTA, latent=spec, c_p=0.1, lr_critic=2e-4, lr_gen=1e-3,
                      gen_hidden=(64, 64), trunk_hidden=(128, 128))
    n = 768
    descriptor = f"mixture:k=8,n={n},radius=0.75,std=0.1,seed={data_seed}"
    check_iters = 20
    outcome, result, timed = _train_workload(ctx, descriptor, cfg, check_iters)
    checks = outcome.checks
    q = BATCH / n
    sigma = oracles.calibrated_sigma(epsilon, DELTA, q, N_D)
    _check(checks, "sigma matches calibration", _rel(timed.trainer.spec.sigma, sigma) <= 1e-12,
           f"{timed.trainer.spec.sigma!r} vs {sigma!r}")
    eps = result.log.series("eps_spent")
    want = oracles.spent_epsilon(oracles.step_moments(q, sigma), check_iters * N_D, DELTA)
    _check(checks, "spent epsilon matches closed form", _rel(eps[-1], want) <= 1e-8,
           f"{eps[-1]!r} vs {want!r}")
    _check(checks, "eps_spent never decreases", bool(np.all(np.diff(eps) >= 0.0)))
    ceiling = math.log(8) + math.log(2.0)
    l_i = result.log.series("l_i")
    _check(checks, "l_i within code entropy", bool(np.all(l_i <= ceiling)),
           f"max {l_i.max()!r} vs {ceiling!r}")
    return outcome


IDX_ROWS = 60000   # MNIST's training-set size, as q=64/60000 on accountant-grid
IDX_SIDE = 28
CHECK_BLOCK = 1024  # rows per block of the feature check


def _mnist_shaped(rng: np.random.Generator, n: int, labels=None) -> np.ndarray:
    """uint8 images with a dark background: a per-class template of
    bright strokes on a fifth of the pixels, plus noise on a twentieth.
    Built in uint8, so no full-size temporary is wider than a byte."""
    pixels = IDX_SIDE * IDX_SIDE
    templates = rng.integers(128, 256, size=(10, pixels), dtype=np.uint8)
    templates[rng.integers(0, 5, size=(10, pixels), dtype=np.uint8) != 0] = 0
    classes = labels if labels is not None else rng.integers(0, 10, size=n)
    img = templates[classes]
    noise = rng.integers(0, 256, size=(n, pixels), dtype=np.uint8)
    noise[rng.integers(0, 20, size=(n, pixels), dtype=np.uint8) != 0] = 0
    np.maximum(img, noise, out=img)
    return img.reshape(n, IDX_SIDE, IDX_SIDE)


def idx_plain(ctx: Context) -> Outcome:
    data_seed, train_seed = ctx.child_seeds(2)
    path = os.path.join(ctx.workdir, "train-images.idx")
    oracles.write_idx_images(path, _mnist_shaped(np.random.default_rng(data_seed), IDX_ROWS))
    row = IDX_SIDE * IDX_SIDE

    def features_match(data) -> bool:
        """Compare with the written bytes block by block, read back from
        the file, so the benchmark holds no copy of the images."""
        ok = data.x.shape == (IDX_ROWS, row)
        with open(path, "rb") as f:
            f.seek(16)  # past the IDX image header
            for i in range(0, IDX_ROWS, CHECK_BLOCK):
                pixels = np.fromfile(f, dtype=np.uint8, count=CHECK_BLOCK * row).reshape(-1, row)
                ok = ok and np.array_equal(data.x[i:i + CHECK_BLOCK],
                                           oracles.bytes_to_features(pixels))
            return ok and f.read() == b""

    cfg = TrainConfig(n_g=1, batch=BATCH, n_d=N_D, seed=train_seed, delta=DELTA)
    outcome, result, timed = _train_workload(ctx, f"idx:{path}", cfg, check_iters=10,
                                             check_data=features_match)
    checks = outcome.checks
    _check(checks, "eps_spent is inf",
           bool(np.all(result.log.series("eps_spent") == math.inf))
           and timed.trainer.spec.sigma == 0.0)
    finite = all(np.all(np.isfinite(result.log.series(f)))
                 for f in ("critic_loss", "gen_loss", "wdist", "l_i"))
    _check(checks, "logged metrics finite",
           finite and bool(np.all(np.isfinite(timed.critic_losses))))
    return outcome


# -- command-line workloads -------------------------------------------------

def _cli(argv) -> tuple[int, str, str, float]:
    """Run ``imdp.cli.main`` in-process.  An exception or ``SystemExit``
    becomes a non-zero code with its message on stderr, so a faulty
    operation is counted as failed instead of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            print(f"SystemExit: {exc.code}", file=sys.stderr)
        except Exception as exc:  # noqa: BLE001 - any fault is one failed operation
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        dt = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def _first_line(text: str) -> str:
    return (text.splitlines() or [""])[0]


def _cli_workload(ctx: Context, setup_op, rounds, run_op, round_size: int) -> Outcome:
    """SETUP_REPS set-up operations, each followed by one segment of
    whole rounds of ``round_size`` timed operations; ``run_op(op)``
    returns (succeeded, seconds)."""
    setups, op_s = [], []
    ok = attempted = 0
    timed_s = 0.0
    for rep in range(1, SETUP_REPS + 1):
        setups.append(run_op(setup_op)[1])
        start = perf_counter()
        for ops in rounds:
            for op in ops:
                span = ctx.enter_op()
                try:
                    good, dt = run_op(op)
                finally:
                    ctx.exit_op(span)
                op_s.append(dt)
                ok += good
                attempted += 1
            if timed_s + perf_counter() - start >= rep * ctx.seconds / SETUP_REPS:
                break
        timed_s += perf_counter() - start
    return Outcome(setup_s=setups, op_s=op_s, ok_ops=ok, attempted=attempted,
                   failed=attempted - ok, train_owns_op=False, round_size=round_size)


EVAL_ROWS = 1200
EVAL_PAIR = (3, 8)
EVAL_PER_CLASS = 128
EVAL_MAP = 200
EVAL_EPOCHS = 4
SWEEP_STEPS = 10
EVAL_LATENT = dict(z_dim=62, categorical=(10,), continuous=((-1.0, 1.0),))


def _eval_params(rng: np.random.Generator, c_p: float) -> tuple[dict, dict]:
    """Generator and critic tensors of the CLI's default 784-dim nets."""
    width = 62 + 10 + 1
    gen = {}
    for name, shape in (("gen.h0", (width, 128)), ("gen.h1", (128, 128)),
                        ("gen.out", (128, IDX_SIDE * IDX_SIDE))):
        gen[f"{name}.W"] = rng.uniform(-0.05, 0.05, size=shape)
        gen[f"{name}.b"] = rng.uniform(-0.05, 0.05, size=shape[1])
    critic = {}
    for name, shape in (("dis.h0", (IDX_SIDE * IDX_SIDE, 128)), ("dis.h1", (128, 128)),
                        ("dis.score", (128, 1)), ("q.cat0", (128, 10)), ("q.cont", (128, 1))):
        critic[f"{name}.W"] = rng.uniform(-c_p, c_p, size=shape)
        critic[f"{name}.b"] = rng.uniform(-c_p, c_p, size=shape[1])
    return gen, critic


def eval_idx(ctx: Context) -> Outcome:
    data_seed, param_seed, eval_seed, sweep_seed = ctx.child_seeds(4)
    rng = np.random.default_rng(data_seed)
    labels = rng.integers(0, 10, size=EVAL_ROWS).astype(np.uint8)
    images = _mnist_shaped(rng, EVAL_ROWS, labels)
    img_path = os.path.join(ctx.workdir, "eval-images.idx")
    lbl_path = os.path.join(ctx.workdir, "eval-labels.idx")
    oracles.write_idx_images(img_path, images)
    oracles.write_idx_labels(lbl_path, labels)

    prng = np.random.default_rng(param_seed)
    c_p = 0.01
    ckpts, gens = {}, {}
    for eps in (math.inf, 2.2):
        gens[eps], critic = _eval_params(prng, c_p)
        blob = oracles.checkpoint_bytes(gens[eps], critic, epsilon=eps, delta=DELTA, c_p=c_p,
                                        q=BATCH / IDX_ROWS, n_d=N_D, **EVAL_LATENT)
        path = os.path.join(ctx.workdir, f"model-{eps}.ckpt")
        with open(path, "wb") as f:
            f.write(blob)
        ckpts[eps] = path
    want_pgm = oracles.sweep_pgm(gens[math.inf], seed=sweep_seed, cont_steps=SWEEP_STEPS,
                                 **EVAL_LATENT)
    n_test, want_sha = oracles.held_out_split(images, labels, eval_seed, EVAL_MAP, EVAL_PAIR)

    eval_out = os.path.join(ctx.workdir, "eval")
    sweep_out = os.path.join(ctx.workdir, "sweep")
    evaluate = ["evaluate", "--model", f"inf={ckpts[math.inf]}", "--model", f"2.2={ckpts[2.2]}",
                "--pair", ",".join(map(str, EVAL_PAIR)),
                "--dataset", f"idx:{img_path},labels={lbl_path}",
                "--per-class", str(EVAL_PER_CLASS), "--map-samples", str(EVAL_MAP),
                "--epochs", str(EVAL_EPOCHS), "--seed", str(eval_seed), "--out", eval_out]
    generate = ["generate", "--checkpoint", ckpts[math.inf], "--cont-steps", str(SWEEP_STEPS),
                "--seed", str(sweep_seed), "--out", sweep_out]
    bad: list[str] = []
    failures: set[str] = set()

    def run_op(_op):
        code_e, out_e, err_e, dt_e = _cli(evaluate)
        code_g, _, err_g, dt_g = _cli(generate)
        if code_e or code_g:
            failures.add(f"evaluate/generate exit {code_e}/{code_g}: "
                         f"{_first_line(err_e + err_g)}")
            return False, dt_e + dt_g
        rows = [line.split(",") for line in out_e.splitlines()[1:]]
        if [r[0] for r in rows] != ["inf", "2.2"]:
            bad.append(f"report rows {rows!r}")
        for r in rows:
            acc, n_train, n_te = float(r[2]), int(r[3]), int(r[4])
            hits = acc * n_te
            if n_train != 2 * EVAL_PER_CLASS:
                bad.append(f"n_train {n_train}")
            if n_te != n_test:
                bad.append(f"n_test {n_te} vs {n_test}")
            if abs(hits - round(hits)) > 1e-9 * n_te or not 0 <= round(hits) <= n_te:
                bad.append(f"accuracy {acc!r} of {n_te} rows")
        with open(os.path.join(eval_out, "utility-manifest.txt"), encoding="utf-8") as f:
            if f"test_split_sha256={want_sha}\n" not in f.read():
                bad.append("test split digest")
        with open(os.path.join(sweep_out, "sweep.pgm"), "rb") as f:
            if f.read() != want_pgm:
                bad.append("sweep image differs from the numpy forward pass")
        return True, dt_e + dt_g

    outcome = _cli_workload(ctx, None, itertools.repeat([None]), run_op, 1)
    _check(outcome.checks, "evaluate and generate outputs", not bad, "; ".join(sorted(set(bad))))
    outcome.failures = failures
    return outcome


ACCOUNTANT_STEPS = 1000
ACCOUNTANT_GRID = tuple((q, eps) for q in (64 / 768, 64 / 60000) for eps in (5.5, 2.2, 1.22))


def accountant_grid(ctx: Context) -> Outcome:
    (order_seed,) = ctx.child_seeds(1)
    expected = {}
    for q, eps in ACCOUNTANT_GRID:
        sigma = oracles.calibrated_sigma(eps, DELTA, q, N_D)
        moments = oracles.step_moments(q, sigma)
        expected[q, eps] = [
            f"sigma = {sigma:.6g}",
            f"steps = {ACCOUNTANT_STEPS}",
            f"alpha(1..{len(moments)}) = "
            + " ".join(f"{a:.6g}" for a in ACCOUNTANT_STEPS * moments),
            f"spent_epsilon(delta={DELTA:g}) = "
            f"{oracles.spent_epsilon(moments, ACCOUNTANT_STEPS, DELTA):.6g}",
        ]
    bad: list[str] = []
    failures: set[str] = set()

    def run_op(op):
        q, eps = op
        code, out, err, dt = _cli(["accountant", "--epsilon", repr(eps), "--q", repr(q),
                                 "--delta", repr(DELTA), "--nd", str(N_D),
                                 "--steps", str(ACCOUNTANT_STEPS)])
        if code:
            failures.add(f"accountant q={q!r} epsilon={eps!r}: {_first_line(err)}")
            return False, dt
        if out.splitlines() != expected[q, eps]:
            bad.append(f"q={q!r} epsilon={eps!r}")
        return True, dt

    def rounds():
        rng = np.random.default_rng(order_seed)
        while True:
            yield [ACCOUNTANT_GRID[i] for i in rng.permutation(len(ACCOUNTANT_GRID))]

    outcome = _cli_workload(ctx, ACCOUNTANT_GRID[0], rounds(), run_op,
                            len(ACCOUNTANT_GRID))
    _check(outcome.checks, "sigma, moments and spent epsilon match the closed form",
           not bad, "; ".join(sorted(set(bad))))
    outcome.failures = failures
    return outcome


WORKLOADS = {
    "trend-private": trend_private,
    "idx-plain": idx_plain,
    "eval-idx": eval_idx,
    "accountant-grid": accountant_grid,
}
