"""Latent code specification, sampling, and the code-recovery bound.

A generator input is a noise vector plus structured codes: categorical
codes drawn uniformly over K classes and continuous codes drawn
uniformly over a range.  The recovery bound rewards an auxiliary
posterior head for predicting the codes back from generated samples;
its maximum equals the total code entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph


@dataclass(frozen=True)
class LatentSpec:
    """Dimensions and distributions of the generator's latent input."""

    z_dim: int
    categorical: tuple[int, ...] = (10,)
    continuous: tuple[tuple[float, float], ...] = ((-1.0, 1.0),)

    def __post_init__(self):
        if self.z_dim < 1:
            raise ValueError("z_dim must be >= 1")
        object.__setattr__(self, "categorical", tuple(int(k) for k in self.categorical))
        object.__setattr__(
            self, "continuous",
            tuple((float(lo), float(hi)) for lo, hi in self.continuous))
        for k in self.categorical:
            if k < 2:
                raise ValueError("categorical code needs K >= 2")
        for lo, hi in self.continuous:
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(
                    "continuous code must be low:high with low < high and a finite high - low")

    @property
    def n_cont(self) -> int:
        return len(self.continuous)

    @property
    def input_width(self) -> int:
        return self.z_dim + sum(self.categorical) + self.n_cont

    def cat_entropy(self) -> float:
        return sum(math.log(k) for k in self.categorical)

    def cont_entropy(self) -> float:
        return sum(math.log(hi - lo) for lo, hi in self.continuous)

    @classmethod
    def parse(cls, z_dim: str, categorical: str, continuous: str) -> "LatentSpec":
        """The one parser of the fields' text, as config files and checkpoint
        spec blocks hold them: ``62``, ``10,4`` and ``-1.0:1.0,0.0:2.0``;
        either list may be empty."""
        def items(text: str) -> list[str]:
            return text.split(",") if text.strip() else []

        conts = []
        for item in items(continuous):
            lo, sep, hi = item.partition(":")
            if not sep:
                raise ValueError(f"continuous code: expected low:high, got {item!r}")
            conts.append((float(lo), float(hi)))
        return cls(z_dim=int(z_dim), categorical=tuple(int(k) for k in items(categorical)),
                   continuous=tuple(conts))


@dataclass
class Codes:
    """One batch of latent inputs, as ``build_codes`` lays them out."""

    z: np.ndarray                   # (batch, z_dim)
    cat_onehot: list[np.ndarray]    # (batch, K_i) each
    cont: np.ndarray | None         # (batch, n_cont)

    def concat(self) -> np.ndarray:
        """Generator input: z, then one-hot codes, then continuous codes."""
        parts = [self.z, *self.cat_onehot]
        if self.cont is not None:
            parts.append(self.cont)
        return np.concatenate(parts, axis=1)


def build_codes(spec: LatentSpec, z: np.ndarray, cat_ids: list,
                cont: np.ndarray | None) -> Codes:
    """The one builder of a code batch: z, one exact one-hot block per
    categorical code from ``cat_ids`` (each a (batch,) int array, or one int
    for every row), then ``cont`` (None when the spec has no continuous code)."""
    batch = z.shape[0]
    rows = np.arange(batch)
    onehots = [np.zeros((batch, k)) for k in spec.categorical]
    for oh, ids in zip(onehots, cat_ids, strict=True):
        oh[rows, ids] = 1.0
    return Codes(z, onehots, cont)


def uniform_cont(spec: LatentSpec, batch: int, rng: np.random.Generator) -> np.ndarray | None:
    """(batch, n_cont) continuous codes, each column uniform over its range
    and drawn in code order; None when the spec has no continuous code."""
    if not spec.n_cont:
        return None
    return np.stack([rng.uniform(lo, hi, size=batch) for lo, hi in spec.continuous], axis=1)


def sample_codes(spec: LatentSpec, batch: int, rng: np.random.Generator) -> Codes:
    """Draw a batch: z standard normal, categorical uniform, continuous uniform."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    z = rng.standard_normal((batch, spec.z_dim))
    cat_ids = [rng.integers(0, k, size=batch) for k in spec.categorical]
    return build_codes(spec, z, cat_ids, uniform_cont(spec, batch, rng))


@dataclass(frozen=True)
class MiBound:
    """Graph nodes for the code-recovery lower bound and its parts."""

    cat: int | None
    cont: int | None
    total: int


def mi_lower_bound(g: Graph, spec: LatentSpec,
                   cat_logits: list[int],
                   cat_targets: list[int],
                   cont_means: int | None = None,
                   cont_targets: int | None = None) -> MiBound:
    """Build the variational bound nodes on an existing graph.

    The categorical part is code entropy minus the softmax cross-entropy
    of the posterior logits against the sampled one-hot codes; the
    continuous part is the unit-variance Gaussian log-likelihood of the
    sampled values at the predicted means plus the uniform prior's
    differential entropy.  Entropy constants shift the reported value to
    its natural scale (maximum near the total code entropy) and carry no
    gradient.
    """
    if len(cat_logits) != len(spec.categorical) or len(cat_targets) != len(cat_logits):
        raise ValueError("one logits/targets node pair required per categorical code")
    cat_node = None
    if cat_logits:
        cat_node = g.weighted_sum([(g.softmax_xent(lg, tg), -1.0)
                                   for lg, tg in zip(cat_logits, cat_targets)],
                                  spec.cat_entropy())
    cont_node = None
    if spec.n_cont:
        if cont_means is None or cont_targets is None:
            raise ValueError("continuous codes need mean and target nodes")
        cont_node = g.weighted_sum([(g.gaussian_loglik(cont_means, cont_targets), 1.0)],
                                   spec.cont_entropy())
    if cat_node is not None and cont_node is not None:
        total = g.weighted_sum([(cat_node, 1.0), (cont_node, 1.0)])
    elif cat_node is not None:
        total = cat_node
    elif cont_node is not None:
        total = cont_node
    else:
        raise ValueError("spec declares no latent codes")
    return MiBound(cat=cat_node, cont=cont_node, total=total)
