"""Private adversarial training loop.

Each generator iteration runs n_d critic updates on fresh real batches,
then one generator update.  The critic path (trunk plus score head) is
the only part that touches real data: its batch gradient is perturbed
with calibrated Gaussian noise and its weights are projected back into
[-c_p, c_p] after every update.  The generator step additionally moves
the recovery head, and the shared trunk through the code-recovery
objective only, so no real-data gradient bypasses the noised path.

The step is laid out to make few, large numpy calls with the same
float64 arithmetic.  The two nets are built into one ``ParamStore``,
generator first, then critic, so their parameters share one buffer and
RMSProp, noise, clipping and the sqrt(m) scaling each make one call per
run (see ``ParamStore.runs``): one run for the critic path, two for the
generator step.  ``Trainer.__init__`` names both sets once, and each
RMSProp is built over its set's runs.  The generator's weights do not
move during the n_d critic steps, so ``critic_round`` draws all n_d code
batches first, in the order the steps would, and runs one generator
forward over them.
"""
from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import privacy
from .autodiff import Graph, ParamStore, backward, forward, graph_per_batch
from .data import Dataset, batch_iter
from .latent import LatentSpec, MiBound, mi_lower_bound, sample_codes
from .nets import CriticQNet, GeneratorNet, NetConfig, build_critic, build_generator
from .privacy import AccountantState, PrivacySpec, accumulate, spent_epsilon


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce one training run."""

    n_g: int
    batch: int = 64
    n_d: int = 5
    lr_critic: float = 5e-5
    lr_gen: float = 1e-4
    lambda_cat: float = 1.0
    lambda_cont: float = 0.1
    epsilon: float = privacy.INF
    delta: float = 1e-5
    c_p: float = 0.01
    seed: int = 0
    latent: LatentSpec = field(default_factory=lambda: LatentSpec(z_dim=62))
    gen_hidden: tuple[int, ...] = (128, 128)
    trunk_hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        if self.n_g < 0:
            raise ValueError("n_g must be >= 0")
        if self.batch < 1 or self.n_d < 1:
            raise ValueError("batch and n_d must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.latent.categorical or self.latent.continuous):
            raise ValueError("training needs at least one latent code")
        for name in ("lr_critic", "lr_gen"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("lambda_cat", "lambda_cont"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        privacy.check_level(self.epsilon, self.delta)
        privacy.check_clip(self.c_p)

    def resolve_privacy(self, dataset_size: int) -> PrivacySpec:
        return PrivacySpec.calibrated(
            epsilon=self.epsilon, delta=self.delta, c_p=self.c_p,
            q=self.batch / dataset_size, n_d=self.n_d)


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    critic_loss: float
    gen_loss: float
    wdist: float
    l_i: float
    eps_spent: float
    wall_ms: float

    FIELDS = ("iteration", "critic_loss", "gen_loss", "wdist", "l_i", "eps_spent")

    def to_line(self) -> str:
        """Deterministic fields only; wall-clock stays out of replayable logs."""
        return " ".join(repr(getattr(self, f)) for f in self.FIELDS)


@dataclass
class MetricsLog:
    """Append-only per-iteration records, one per generator iteration."""

    records: list[MetricsRecord] = field(default_factory=list)

    def append(self, record: MetricsRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("iteration numbers must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def series(self, name: str) -> np.ndarray:
        if name not in MetricsRecord.FIELDS:
            raise KeyError(f"unknown metrics field {name!r}")
        return np.array([getattr(r, name) for r in self.records])

    def to_text(self) -> str:
        header = "# " + " ".join(MetricsRecord.FIELDS)
        return "\n".join([header, *(r.to_line() for r in self.records)]) + "\n"


class RMSProp:
    """Root-mean-square gradient scaling without momentum, over the one
    parameter set it is built for: one mean-square buffer per run of
    ``store.runs(names)``."""

    DECAY = 0.99
    EPS = 1e-8

    def __init__(self, lr: float, store: ParamStore, names):
        self.lr = lr
        self.runs = store.runs(names)
        self.cache = [np.zeros_like(run.grads) for run in self.runs]

    def update(self) -> None:
        """Step the set against the store's gradient slots."""
        for run, c in zip(self.runs, self.cache):
            p, g = run.params, run.grads
            c *= self.DECAY
            c += (1.0 - self.DECAY) * g * g
            p -= self.lr * g / (np.sqrt(c) + self.EPS)


def critic_loss(g: Graph, real_scores: int, fake_scores: int) -> int:
    """-mean(real) + mean(fake), one weighted-sum node; its negation
    estimates the Wasserstein gap.  Equal means give +0.0."""
    if g.shape(real_scores)[0] != g.shape(fake_scores)[0]:
        raise ValueError("real and fake batches must match")
    if g.shape(real_scores)[0] < 1:
        raise ValueError("empty batch")
    return g.weighted_sum([(g.mean(real_scores), -1.0), (g.mean(fake_scores), 1.0)])


def _mi_terms(mi: MiBound, lambda_cat: float, lambda_cont: float) -> list[tuple[int, float]]:
    """The weighted code-recovery bound, negated, as weighted_sum terms."""
    return [(node, -lam) for node, lam in ((mi.cat, lambda_cat), (mi.cont, lambda_cont))
            if node is not None]


def generator_loss(g: Graph, fake_scores: int, mi: MiBound,
                   lambda_cat: float, lambda_cont: float) -> int:
    """-mean(fake scores) minus the weighted code-recovery bound."""
    return g.weighted_sum([(g.mean(fake_scores), -1.0),
                           *_mi_terms(mi, lambda_cat, lambda_cont)])


def mi_objective(g: Graph, mi: MiBound, lambda_cat: float, lambda_cont: float) -> int:
    """The recovery part of the generator loss, used to move trunk and head."""
    return g.weighted_sum(_mi_terms(mi, lambda_cat, lambda_cont))


def derive_seeds(seed: int) -> dict[str, int]:
    """Named child seeds so each randomness consumer owns one stream."""
    state = np.random.SeedSequence(seed).generate_state(4, dtype=np.uint64)
    return {"nets": int(state[0]), "batches": int(state[1]),
            "codes": int(state[2]), "noise": int(state[3])}


@dataclass
class TrainResult:
    gen: GeneratorNet
    critic: CriticQNet
    log: MetricsLog
    privacy: PrivacySpec
    wall_seconds: float


class Trainer:
    """One training run on one dataset: the nets, their optimizers, the
    real-batch, code and noise streams, and the accountant.  Building it
    rejects a config that does not fit the data; ``run`` trains.  Its
    step graphs are built on first use, once per batch size."""

    last_wdist = 0.0
    last_critic_loss = 0.0

    def __init__(self, config: TrainConfig, data: Dataset):
        seeds = derive_seeds(config.seed)
        self.config = config
        self.batches = batch_iter(data, config.batch, seeds["batches"])
        netcfg = NetConfig(latent=config.latent, data_dim=data.dim,
                           gen_hidden=config.gen_hidden,
                           trunk_hidden=config.trunk_hidden, seed=seeds["nets"])
        self.gen = build_generator(netcfg)
        self.critic = build_critic(netcfg)
        self.store = self.gen.store = self.critic.store = ParamStore(
            {**self.gen.store.params, **self.critic.store.params})
        self.spec = config.resolve_privacy(data.n)
        self.accountant = (AccountantState.create(self.spec.q, self.spec.sigma)
                           if self.spec.private else None)
        # the critic path is the only set that sees real data; the
        # generator step moves the generator, then trunk and recovery heads
        self.critic_path = self.critic.critic_path_names()
        self.gen_names = self.gen.param_names()
        self.recovery_names = [*self.critic.trunk_names(), *self.critic.q_head_names()]
        self.opt_critic = RMSProp(config.lr_critic, self.store, self.critic_path)
        self.opt_gen = RMSProp(config.lr_gen, self.store, self.gen_names + self.recovery_names)
        self.codes_rng = np.random.default_rng(seeds["codes"])
        self.noise_rng = np.random.default_rng(seeds["noise"])

    @graph_per_batch
    def critic_graph(self, batch: int) -> tuple[Graph, int]:
        g = Graph()
        x_real = g.input("x_real", (batch, self.critic.data_dim))
        x_fake = g.input("x_fake", (batch, self.critic.data_dim))
        s_real = self.critic.append_score_head(g, self.critic.append_trunk(g, x_real))
        s_fake = self.critic.append_score_head(g, self.critic.append_trunk(g, x_fake))
        return g, critic_loss(g, s_real, s_fake)

    @graph_per_batch
    def gen_graph(self, batch: int) -> tuple[Graph, int, int, MiBound]:
        cfg = self.config
        g = Graph()
        x_fake = self.gen.append_to_graph(g, g.input("gen_in", (batch, self.gen.input_width)))
        trunk = self.critic.append_trunk(g, x_fake)
        score = self.critic.append_score_head(g, trunk)
        cat_nodes, cont_node = self.critic.append_q_heads(g, trunk)
        cat_targets = [g.input(f"cat{i}", (batch, k))
                       for i, k in enumerate(cfg.latent.categorical)]
        cont_target = g.input("cont", (batch, cfg.latent.n_cont)) if cfg.latent.n_cont else None
        mi = mi_lower_bound(g, cfg.latent, cat_nodes, cat_targets, cont_node, cont_target)
        return (g, generator_loss(g, score, mi, cfg.lambda_cat, cfg.lambda_cont),
                mi_objective(g, mi, cfg.lambda_cat, cfg.lambda_cont), mi)

    def critic_round(self) -> None:
        """The n_d critic updates of one generator iteration.

        Draws the n_d code batches in the order n_d single steps would,
        runs the generator once over them stacked, and gives each step its
        slice with the next real batch.  Critic steps do not move the
        generator, and each stacked row comes out of the products with the
        same bits as a separate pass gives it.
        """
        cfg = self.config
        m = cfg.batch
        codes = [sample_codes(cfg.latent, m, self.codes_rng).concat() for _ in range(cfg.n_d)]
        gg, _, g_out = self.gen._graph(cfg.n_d * m)
        fakes = forward(gg, self.store, {"gen_in": np.concatenate(codes)})[g_out]
        for k in range(cfg.n_d):
            self.critic_step(next(self.batches), fakes[k * m:(k + 1) * m])

    def critic_step(self, x_real: np.ndarray, x_fake: np.ndarray) -> None:
        """One noisy, clipped critic update on a real and a generated batch."""
        cfg = self.config
        graph, loss = self.critic_graph(cfg.batch)
        acts = forward(graph, self.store, {"x_real": x_real, "x_fake": x_fake})
        loss_value = float(acts[loss])
        self.last_critic_loss = loss_value
        self.last_wdist = -loss_value
        names = self.critic_path
        backward(graph, self.store, acts, loss, wrt=names)
        if self.spec.sigma > 0.0:
            # One N(0, (sigma c_p)^2) draw per coordinate of the sqrt(m)-scaled
            # mean gradient, rescaled back: std sigma c_p sqrt(m) on the batch
            # sum.  That assumes each record's critic-path gradient has norm
            # <= c_p sqrt(m) (0.8 at the trend config).  Only weight clipping
            # is enforced; measured max norms are 1.09 at iteration 1 and 13.7
            # at iteration 300 at epsilon 1.22 (ROADMAP item 2).
            root_m = float(np.sqrt(cfg.batch))
            runs = self.store.runs(names)
            for run in runs:
                np.multiply(run.grads, root_m, out=run.grads)
            privacy.perturb_gradient(self.store, self.spec.sigma, self.spec.c_p,
                                     self.noise_rng, names)
            for run in runs:
                np.divide(run.grads, root_m, out=run.grads)
        self.opt_critic.update()
        privacy.clip_weights(self.store, self.spec.c_p, names)

    def generator_step(self) -> tuple[float, float]:
        """One generator/recovery update; returns (gen loss, recovery bound)."""
        cfg = self.config
        codes = sample_codes(cfg.latent, cfg.batch, self.codes_rng)
        inputs = {"gen_in": codes.concat()}
        for i, oh in enumerate(codes.cat_onehot):
            inputs[f"cat{i}"] = oh
        if codes.cont is not None:
            inputs["cont"] = codes.cont
        graph, loss, mi_loss, mi = self.gen_graph(cfg.batch)
        acts = forward(graph, self.store, inputs)
        loss_value = float(acts[loss])
        l_i = float(acts[mi.total])
        # Both passes run before either update: param activations alias
        # the stored arrays.  The second pass leaves the gen.* slots alone.
        backward(graph, self.store, acts, loss, wrt=self.gen_names)
        backward(graph, self.store, acts, mi_loss, wrt=self.recovery_names)
        self.opt_gen.update()
        privacy.clip_weights(self.store, self.spec.c_p, self.critic_path)
        return loss_value, l_i

    def run(self, on_iteration=None) -> TrainResult:
        """Run the full loop; one metrics record per generator iteration.

        ``on_iteration(i, trainer)`` fires at each generator-iteration
        boundary, after that iteration's updates.
        """
        cfg = self.config
        log = MetricsLog()
        t_start = time.perf_counter()
        for i in range(1, cfg.n_g + 1):
            t0 = time.perf_counter()
            try:
                self.critic_round()
                gen_loss, l_i = self.generator_step()
            except Exception as exc:
                raise RuntimeError(f"training failed at generator iteration {i}") from exc
            if self.accountant is not None:
                self.accountant = accumulate(self.accountant, cfg.n_d)
                eps = spent_epsilon(self.accountant, cfg.delta)
            else:
                eps = privacy.INF
            log.append(MetricsRecord(
                iteration=i, critic_loss=self.last_critic_loss, gen_loss=gen_loss,
                wdist=self.last_wdist, l_i=l_i, eps_spent=eps,
                wall_ms=(time.perf_counter() - t0) * 1e3))
            if on_iteration is not None:
                on_iteration(i, self)
        return TrainResult(gen=self.gen, critic=self.critic, log=log, privacy=self.spec,
                           wall_seconds=time.perf_counter() - t_start)


@functools.cache
def keep_freed_heap() -> None:
    """Keep freed heap memory mapped between iterations (glibc only).

    Every step allocates and frees its activations and gradients, about
    1 MB on a 2-dim config with 128-wide nets.  Under glibc's starting
    thresholds that memory goes back to the kernel at the end of each
    step and is faulted in again by the next: ~1450 page faults and ~20%
    of an iteration.  Loading a 784-dim checkpoint likewise faults in
    ~300 fresh pages per load.  These are the limits glibc's own dynamic
    thresholds grow to (mmap 32 MB, trim twice that); other allocators
    are left as they are.  The thresholds are process state, so they are
    set once per process: ``train`` and the ``imdp`` entry point call
    this, and later calls return at once.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def train(config: TrainConfig, data: Dataset, on_iteration=None) -> TrainResult:
    """Build one run's trainer and run it; see ``Trainer.run``."""
    keep_freed_heap()
    return Trainer(config, data).run(on_iteration)
