"""Evaluation protocol: code sweeps, the utility-vs-privacy classifier
experiment, and training-curve statistics.

The evaluator never touches the privacy engine: classifiers train on
generated data with plain gradient descent and are scored on real
held-out rows only.
"""
from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic
from .autodiff import Graph, backward, forward, graph_per_batch
from .data import Dataset, bytes_from_features
from .latent import build_codes, uniform_cont
from .nets import CriticQNet, GeneratorNet, _affine, _init_layers, generate, q_posterior
from .train import MetricsLog


@dataclass
class SweepGrid:
    """Generated samples arranged category-by-column, code-value-by-row."""

    values: np.ndarray       # (rows, cols, d)
    cont_values: np.ndarray  # (rows,)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def to_pgm(self, path, img_side: int) -> None:
        """Tile the grid into one portable graymap (binary P5)."""
        rows, cols, d = self.values.shape
        if img_side * img_side != d:
            raise ValueError(f"data dim {d} is not {img_side}x{img_side}")
        tiles = bytes_from_features(self.values).reshape(rows, cols, img_side, img_side)
        # tile (r, c) pixel (i, j) lands at canvas row r*side+i, column c*side+j
        canvas = tiles.transpose(0, 2, 1, 3).reshape(rows * img_side, cols * img_side)
        header = f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii")
        write_atomic(path, header + canvas.tobytes())

    def to_table(self) -> str:
        """Comma-separated rows: category, code value, then the features."""
        d = self.values.shape[2]
        lines = ["category,code_value," + ",".join(f"x{i}" for i in range(d))]
        for r in range(self.rows):
            for c in range(self.cols):
                feats = ",".join(repr(float(v)) for v in self.values[r, c])
                lines.append(f"{c},{float(self.cont_values[r])!r},{feats}")
        return "\n".join(lines) + "\n"


def code_sweep(gen: GeneratorNet, seed: int, cont_steps: int = 10) -> SweepGrid:
    """Enumerate the first categorical code of the generator's latent spec
    across columns against an even grid of its first continuous code
    across rows, with a fixed noise draw per row.  Every other code sits
    at category 0 or its range's midpoint."""
    if cont_steps < 2:
        raise ValueError("cont_steps must be >= 2")
    spec = gen.cfg.latent
    if not spec.categorical:
        raise ValueError("sweep needs a categorical code")
    k = spec.categorical[0]
    rng = np.random.default_rng(seed)
    z_rows = rng.standard_normal((cont_steps, spec.z_dim))
    cat_ids = [np.tile(np.arange(k), cont_steps)] + [0] * (len(spec.categorical) - 1)
    cont = None
    cont_values = np.zeros(cont_steps)
    if spec.n_cont:
        cont_values = np.linspace(*spec.continuous[0], cont_steps)
        cont = np.tile([0.5 * (lo + hi) for lo, hi in spec.continuous], (cont_steps * k, 1))
        cont[:, 0] = np.repeat(cont_values, k)
    codes = build_codes(spec, np.repeat(z_rows, k, axis=0), cat_ids, cont)
    return SweepGrid(values=generate(gen, codes).reshape(cont_steps, k, -1),
                     cont_values=cont_values)


class Classifier:
    """Small feed-forward binary classifier trained by plain SGD."""

    HIDDEN = 64
    LR = 1e-3
    BATCH = 64

    def __init__(self, dim: int, labels: tuple[int, int], seed: int = 0):
        self.labels = labels
        self.layers = {"c.h": (dim, self.HIDDEN), "c.out": (self.HIDDEN, 2)}
        self.store = _init_layers(self.layers, np.random.default_rng(seed))

    @graph_per_batch
    def _graph(self, batch: int):
        g = Graph()
        x = g.input("x", (batch, self.layers["c.h"][0]))
        h = g.relu(_affine(g, x, "c.h", *self.layers["c.h"]))
        logits = _affine(g, h, "c.out", *self.layers["c.out"])
        t = g.input("t", (batch, 2))
        return g, logits, g.softmax_xent(logits, t)

    def logits(self, x: np.ndarray) -> np.ndarray:
        g, logits, _ = self._graph(x.shape[0])
        return forward(g, self.store, {"x": x, "t": np.zeros((x.shape[0], 2))})[logits]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels, mapped back to the original label pair."""
        idx = self.logits(x).argmax(axis=1)
        return np.where(idx == 0, self.labels[0], self.labels[1])

    def accuracy(self, ds: Dataset) -> float:
        if ds.y is None:
            raise ValueError("dataset has no labels")
        return float((self.predict(ds.x) == ds.y).mean())


def train_binary_classifier(ds: Dataset, epochs: int = 100, seed: int = 0) -> Classifier:
    """Cross-entropy training over shuffled epochs; deterministic by seed.

    Each step takes ``Classifier.BATCH`` rows, or all ``n`` rows when
    there are fewer.  Rows past the last full batch of an epoch's shuffle
    are skipped that epoch."""
    if ds.y is None:
        raise ValueError("dataset has no labels")
    labels = tuple(sorted(set(int(v) for v in ds.y)))
    if len(labels) != 2:
        raise ValueError(f"need exactly two labels, got {labels}")
    clf = Classifier(dim=ds.dim, labels=labels, seed=seed)
    onehot = np.zeros((ds.n, 2))
    onehot[np.arange(ds.n), (ds.y == labels[1]).astype(int)] = 1.0
    rng = np.random.default_rng(seed)
    batch = min(clf.BATCH, ds.n)
    g, _, loss = clf._graph(batch)
    for _ in range(epochs):
        order = rng.permutation(ds.n)
        for lo in range(0, ds.n - batch + 1, batch):
            rows = order[lo:lo + batch]
            acts = forward(g, clf.store, {"x": ds.x[rows], "t": onehot[rows]})
            grads = backward(g, clf.store, acts, loss)
            for name in clf.store.params:
                clf.store.params[name] -= clf.LR * grads[name]
    return clf


def map_categories_to_labels(critic: CriticQNet,
                             mapping_data: Dataset) -> tuple[dict[int, int], bool]:
    """Majority-vote identification of which category of the first code
    emits which label.

    Returns (label -> category) plus a flag marking any vote tie, which
    is broken deterministically toward the lower category id.
    """
    if mapping_data.y is None:
        raise ValueError("mapping data needs labels")
    if not critic.cfg.latent.categorical:
        raise ValueError("the label -> category map needs a categorical code")
    logits = q_posterior(critic, mapping_data.x).cat_logits[0]
    assigned = logits.argmax(axis=1)
    k = logits.shape[1]
    mapping: dict[int, int] = {}
    tie = False
    for label in sorted(set(int(v) for v in mapping_data.y)):
        counts = np.bincount(assigned[mapping_data.y == label], minlength=k)
        best = int(counts.argmax())  # argmax takes the lower id on ties
        if (counts == counts[best]).sum() > 1:
            tie = True
        mapping[label] = best
    return mapping, tie


@dataclass(frozen=True)
class UtilityRow:
    epsilon: float
    train_source: str
    accuracy: float
    n_train: int
    n_test: int
    mapping_tie: bool


@dataclass
class UtilityReport:
    rows: list[UtilityRow]
    test_split_sha256: str

    def to_csv(self) -> str:
        lines = ["epsilon,train_source,accuracy,n_train,n_test,mapping_tie"]
        for r in self.rows:
            lines.append(f"{r.epsilon!r},{r.train_source},{r.accuracy!r},"
                         f"{r.n_train},{r.n_test},{int(r.mapping_tie)}")
        return "\n".join(lines) + "\n"

    def spearman(self) -> float:
        """Rank correlation between privacy level and accuracy."""
        return spearman_rho([r.epsilon for r in self.rows],
                            [r.accuracy for r in self.rows])


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank; inf ranks last."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    first = np.flatnonzero(np.r_[True, v[order][1:] != v[order][:-1]])
    last = np.r_[first[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((first + last + 1) / 2.0, last - first)
    return ranks


def spearman_rho(a, b) -> float:
    """Spearman's rho: the Pearson correlation of average ranks.

    nan when either column is constant (e.g. every accuracy ties), where
    the correlation is undefined.
    """
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.ptp(ra) == 0.0 or np.ptp(rb) == 0.0:
        return float("nan")
    return float(np.corrcoef(ra, rb)[0, 1])


def dataset_sha256(ds: Dataset) -> str:
    """sha256 of the float64 features, then the int64 labels, read in row
    blocks of about 1 MiB so IDX features are never decoded whole."""
    h = hashlib.sha256()
    step = max(1, (1 << 17) // ds.dim)
    for lo in range(0, ds.n, step):
        h.update(np.ascontiguousarray(ds.x[lo:lo + step]))
    if ds.y is not None:
        h.update(np.ascontiguousarray(ds.y).tobytes())
    return h.hexdigest()


def _generate_labeled(gen: GeneratorNet, category: int, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """``count`` rows at one category of the first code, the others at 0."""
    spec = gen.cfg.latent
    z = rng.standard_normal((count, spec.z_dim))
    cat_ids = [category] + [0] * (len(spec.categorical) - 1)
    return generate(gen, build_codes(spec, z, cat_ids, uniform_cont(spec, count, rng)))


def pair_rows(y: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Indices, in order, of the rows labeled ``pair[0]`` or ``pair[1]``;
    a split with none of them is an error."""
    a, b = int(pair[0]), int(pair[1])
    rows = np.flatnonzero(np.isin(y, (a, b)))
    if not rows.size:
        raise ValueError(f"test split holds no rows labeled {a} or {b}")
    return rows


def _utility_row(eps: float, gen: GeneratorNet, critic: CriticQNet,
                 pair: tuple[int, int], test: Dataset, map_data: Dataset,
                 per_class: int, epochs: int, seed: int) -> UtilityRow:
    """One privacy level of ``utility_privacy_curve``.  Its generated
    split is freed before the classifier scores the real rows, and the
    classifier when the call returns, before the next level generates."""
    mapping, tie = map_categories_to_labels(critic, map_data)
    rng = np.random.default_rng(seed)
    source = f"generated:eps={eps}"
    train_ds = Dataset(x=np.concatenate([_generate_labeled(gen, mapping[lbl], per_class, rng)
                                         for lbl in pair]),
                       y=np.repeat(pair, per_class), source=source)
    clf = train_binary_classifier(train_ds, epochs=epochs, seed=seed)
    n_train = train_ds.n
    del train_ds
    return UtilityRow(epsilon=eps, train_source=source, accuracy=clf.accuracy(test),
                      n_train=n_train, n_test=test.n, mapping_tie=tie)


def utility_privacy_curve(models: Mapping[float, tuple[GeneratorNet, CriticQNet]],
                          pair: tuple[int, int], real_test: Dataset,
                          map_data: Dataset, per_class: int = 2000,
                          epochs: int = 100, seed: int = 0) -> UtilityReport:
    """Per privacy level: identify the label categories, generate a
    training split, fit a binary classifier, and score it on real rows.

    ``models[eps]`` is read once, when its level runs, so a mapping that
    loads on lookup holds one level's model at a time.  The test split
    must hold rows of the pair and the map split rows of both its labels;
    both are checked before any level runs.  Every
    level reuses the same seed so identical models earn identical
    accuracies; rows come back sorted by descending privacy level.
    """
    a, b = int(pair[0]), int(pair[1])
    if real_test.y is None:
        raise ValueError("real test data needs labels")
    if map_data.y is None:
        raise ValueError("mapping data needs labels")
    x, y = real_test.x, real_test.y
    keep = pair_rows(y, (a, b))
    for label in (a, b):
        if not np.any(map_data.y == label):
            raise ValueError(f"map split holds no rows labeled {label}")
    if keep.size < real_test.n:
        x, y = x.take(keep, axis=0), y[keep]
    test = Dataset(x, y, source=f"{real_test.source}|pair={a}-{b}")
    rows = [_utility_row(eps, *models[eps], (a, b), test, map_data, per_class, epochs, seed)
            for eps in sorted(models, reverse=True)]
    return UtilityReport(rows=rows, test_split_sha256=dataset_sha256(test))


@dataclass(frozen=True)
class CurveStats:
    mean: float
    var: float
    first_half_mean: float
    first_half_var: float
    second_half_mean: float
    second_half_var: float


def curve_stats(log: MetricsLog, field: str, window: int | None = None) -> CurveStats:
    """Means and variances of a logged field, whole and split into halves.

    ``window`` restricts the view to the trailing records first.
    """
    if len(log) == 0:
        raise ValueError("empty metrics log")
    series = log.series(field)
    if window is not None:
        series = series[-window:]
    mid = len(series) // 2
    first, second = series[:mid], series[mid:]
    return CurveStats(
        mean=float(series.mean()), var=float(series.var()),
        first_half_mean=float(first.mean()) if first.size else float("nan"),
        first_half_var=float(first.var()) if first.size else float("nan"),
        second_half_mean=float(second.mean()), second_half_var=float(second.var()))
