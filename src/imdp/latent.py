"""Latent code specification, sampling, and the code-recovery bound.

A generator input is a noise vector plus structured codes: categorical
codes drawn uniformly over K classes and continuous codes drawn
uniformly over a range.  The recovery bound rewards an auxiliary
posterior head for predicting the codes back from generated samples;
its maximum equals the total code entropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Graph, as_tensor


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
            if not lo < hi:
                raise ValueError("continuous code needs low < high")

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

    def to_text(self) -> str:
        cats = ",".join(str(k) for k in self.categorical)
        conts = ",".join(f"{lo}:{hi}" for lo, hi in self.continuous)
        return f"z_dim={self.z_dim}\ncategorical={cats}\ncontinuous={conts}"

    @classmethod
    def parse(cls, z_dim: str, categorical: str, continuous: str) -> "LatentSpec":
        """The one parser of the fields' text as ``to_text`` writes them:
        ``62``, ``10,4`` and ``-1.0:1.0,0.0:2.0``; either list may be empty."""
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

    @classmethod
    def from_text(cls, text: str) -> "LatentSpec":
        fields = {}
        for line in text.strip().splitlines():
            key, _, val = line.partition("=")
            fields[key.strip()] = val.strip()
        return cls.parse(fields["z_dim"], fields.get("categorical", ""),
                         fields.get("continuous", ""))


@dataclass
class Codes:
    """One batch of sampled latent inputs."""

    z: np.ndarray                      # (batch, z_dim)
    cat_onehot: list[np.ndarray] = field(default_factory=list)  # (batch, K_i) each
    cont: np.ndarray | None = None     # (batch, n_cont)
    spec: LatentSpec | None = None

    def __post_init__(self):
        self.z = as_tensor(self.z, where="codes.z")
        b = self.z.shape[0]
        self.cat_onehot = [as_tensor(c, where="codes.cat") for c in self.cat_onehot]
        for c in self.cat_onehot:
            if c.shape[0] != b:
                raise ValueError("categorical code batch mismatch")
            if not (np.isin(c, (0.0, 1.0)).all() and (c.sum(axis=1) == 1.0).all()):
                raise ValueError("categorical codes must be exact one-hot rows")
        if self.cont is not None:
            self.cont = as_tensor(self.cont, where="codes.cont")
            if self.cont.shape[0] != b:
                raise ValueError("continuous code batch mismatch")
            if self.spec is not None:
                for j, (lo, hi) in enumerate(self.spec.continuous):
                    col = self.cont[:, j]
                    if col.min() < lo or col.max() > hi:
                        raise ValueError(f"continuous code {j} outside [{lo}, {hi}]")

    @classmethod
    def _trusted(cls, z, cat_onehot, cont, spec) -> "Codes":
        """Wrap arrays that are valid by construction, skipping the checks.

        Only for float64 C-contiguous arrays already shaped, one-hot and
        in range as ``__post_init__`` requires; ``sample_codes`` builds
        exactly those.
        """
        codes = object.__new__(cls)
        codes.z, codes.cat_onehot, codes.cont, codes.spec = z, cat_onehot, cont, spec
        return codes

    @property
    def batch(self) -> int:
        return self.z.shape[0]

    def cat_index(self, i: int = 0) -> np.ndarray:
        return self.cat_onehot[i].argmax(axis=1)

    def concat(self) -> np.ndarray:
        """Generator input: z, then one-hot codes, then continuous codes."""
        parts = [self.z, *self.cat_onehot]
        if self.cont is not None:
            parts.append(self.cont)
        return np.concatenate(parts, axis=1)


def sample_codes(spec: LatentSpec, batch: int, rng: np.random.Generator) -> Codes:
    """Draw a batch: z standard normal, categorical uniform, continuous uniform."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    z = rng.standard_normal((batch, spec.z_dim))
    onehots = []
    for k in spec.categorical:
        idx = rng.integers(0, k, size=batch)
        oh = np.zeros((batch, k))
        oh[np.arange(batch), idx] = 1.0
        onehots.append(oh)
    cont = None
    if spec.n_cont:
        cols = [rng.uniform(lo, hi, size=batch) for lo, hi in spec.continuous]
        cont = np.stack(cols, axis=1)
    return Codes._trusted(z, onehots, cont, spec)


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
        xent = g.softmax_xent(cat_logits[0], cat_targets[0])
        for lg, tg in zip(cat_logits[1:], cat_targets[1:]):
            xent = g.add(xent, g.softmax_xent(lg, tg))
        cat_node = g.add_scalar(g.neg(xent), spec.cat_entropy())
    cont_node = None
    if spec.n_cont:
        if cont_means is None or cont_targets is None:
            raise ValueError("continuous codes need mean and target nodes")
        cont_node = g.add_scalar(
            g.gaussian_loglik(cont_means, cont_targets), spec.cont_entropy())
    if cat_node is not None and cont_node is not None:
        total = g.add(cat_node, cont_node)
    elif cat_node is not None:
        total = cat_node
    elif cont_node is not None:
        total = cont_node
    else:
        raise ValueError("spec declares no latent codes")
    return MiBound(cat=cat_node, cont=cont_node, total=total)
