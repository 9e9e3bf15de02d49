import sys
from dataclasses import dataclass, replace

import pytest

from imdp.data import Dataset, synth_mixture
from imdp.latent import LatentSpec
from imdp.train import TrainConfig, train

# One trained suite shared by the acceptance gate and the trained-model
# checks: the eight-component ring mixture at four privacy levels and
# three seeds.  Sized to finish in about ten minutes.
TREND_SPEC = LatentSpec(z_dim=8, categorical=(8,), continuous=((-1.0, 1.0),))
TREND_DATA_ARGS = dict(k=8, radius=0.75, std=0.1, n=768, seed=11)
TREND_SEEDS = (3, 4, 6)
TREND_EPSILONS = (float("inf"), 5.5, 2.2, 1.22)
TREND_N_G = 3000


def trend_config(seed: int, epsilon: float) -> TrainConfig:
    return TrainConfig(n_g=TREND_N_G, batch=64, seed=seed, epsilon=epsilon,
                       latent=TREND_SPEC, c_p=0.1, lr_critic=2e-4, lr_gen=1e-3,
                       gen_hidden=(64, 64), trunk_hidden=(128, 128))


@dataclass(frozen=True)
class TimingReport:
    private_ms: float
    nonprivate_ms: float

    @property
    def ratio(self) -> float:
        return self.private_ms / self.nonprivate_ms


def timing_overhead(config: TrainConfig, data: Dataset) -> TimingReport:
    """Wall-clock of the private path against the matched non-private path.

    Each side runs its ``n_g`` iterations as up to five near-equal
    ``train`` calls, alternating with the other side's and swapping which
    side goes first, and sums their wall time.  A swing in machine speed
    then lands on both sides alike."""
    if config.epsilon == float("inf"):
        raise ValueError("config must request a finite privacy level")
    parts = max(1, min(5, config.n_g))
    sides = [config, replace(config, epsilon=float("inf"))]
    seconds = [0.0, 0.0]
    for i in range(parts):
        n_g = config.n_g // parts + (i < config.n_g % parts)
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds[side] += train(replace(sides[side], n_g=n_g), data).wall_seconds
    return TimingReport(private_ms=seconds[0] * 1e3, nonprivate_ms=seconds[1] * 1e3)


def _announce(text: str) -> None:
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="session")
def trend_suite():
    """Train the shared model suite once per test session."""
    data = synth_mixture(**TREND_DATA_ARGS)
    runs = {}
    jobs = [(seed, eps) for seed in TREND_SEEDS for eps in (float("inf"), 1.22)]
    jobs += [(TREND_SEEDS[0], eps) for eps in (5.5, 2.2)]
    _announce(f"[suite] training {len(jobs)} models "
              f"({TREND_N_G} iterations each), expect ~10 minutes")
    for i, (seed, eps) in enumerate(jobs, 1):
        runs[(seed, eps)] = train(trend_config(seed, eps), data)
        _announce(f"[suite] {i}/{len(jobs)} done: seed={seed} epsilon={eps}")
    return {
        "runs": runs,
        "data": data,
        "map_data": synth_mixture(**{**TREND_DATA_ARGS, "n": 1000, "seed": 12}),
        "test_data": synth_mixture(**{**TREND_DATA_ARGS, "n": 2000, "seed": 13}),
    }
