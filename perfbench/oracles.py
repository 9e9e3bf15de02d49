"""Computations made apart from the program, used to check its outputs.

Each oracle follows a published formula or file layout, not the
program's code:

- the noise calibration sigma = 2 q sqrt(n_d ln(1/delta)) / epsilon;
- the closed-form log-moment of the subsampled Gaussian mechanism at an
  integer order (Abadi et al. 2016, arXiv:1607.00133; Mironov, Talwar &
  Zhang 2019, arXiv:1908.10530) and the tail-bound conversion to a
  spent epsilon;
- a plain-numpy forward pass of the generator stack;
- writers of the big-endian IDX image/label layout and of the
  little-endian ``IMDP`` version-1 checkpoint layout;
- the code-sweep image and the evaluation's held-out split, rebuilt
  from their documented definitions.
"""
from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

LAMBDA_MAX = 32


def calibrated_sigma(epsilon: float, delta: float, q: float, n_d: int) -> float:
    """Noise scale of the calibration formula; 0 for epsilon = inf."""
    if epsilon == math.inf:
        return 0.0
    return 2.0 * q * math.sqrt(n_d * math.log(1.0 / delta)) / epsilon


def log_moment(q: float, sigma: float, lam: int) -> float:
    """alpha(lam) = log sum_k C(lam+1,k) (1-q)^(lam+1-k) q^k exp((k^2-k)/(2 sigma^2)).

    The finite binomial sum is evaluated in log space, so orders whose
    terms overflow a float64 (small sigma) stay exact.
    """
    n = lam + 1
    terms = []
    for k in range(n + 1):
        log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        log_q = k * math.log(q) if k else 0.0
        log_1mq = (n - k) * math.log1p(-q) if n - k else 0.0
        terms.append(log_binom + log_1mq + log_q + (k * k - k) / (2.0 * sigma * sigma))
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def step_moments(q: float, sigma: float, lambda_max: int = LAMBDA_MAX) -> np.ndarray:
    """alpha(1..lambda_max) of one step, floored at 0 like any log-moment."""
    return np.array([max(log_moment(q, sigma, lam), 0.0)
                     for lam in range(1, lambda_max + 1)])


def spent_epsilon(moments: np.ndarray, steps: int, delta: float) -> float:
    """min over lam of (steps alpha(lam) + ln(1/delta)) / lam."""
    lams = np.arange(1, len(moments) + 1)
    return float(np.min((steps * moments + math.log(1.0 / delta)) / lams))


# -- generator forward pass ---------------------------------------------

def generator_forward(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """relu(x W + b) for each hidden layer ``gen.h<i>``, then tanh of ``gen.out``."""
    h = x
    i = 0
    while f"gen.h{i}.W" in params:
        h = np.maximum(h @ params[f"gen.h{i}.W"] + params[f"gen.h{i}.b"], 0.0)
        i += 1
    return np.tanh(h @ params["gen.out.W"] + params["gen.out.b"])


def features_to_bytes(x: np.ndarray) -> np.ndarray:
    """Map [-1, 1] features onto 0..255 pixel values, rounding to nearest."""
    return np.clip(np.rint((x + 1.0) / 2.0 * 255.0), 0, 255).astype(np.uint8)


def bytes_to_features(pixels: np.ndarray) -> np.ndarray:
    """The ingest rescale of the IDX format: byte / 255 * 2 - 1."""
    return pixels.astype(np.float64) / 255.0 * 2.0 - 1.0


def sweep_inputs(z_dim: int, categorical: tuple[int, ...],
                 continuous: tuple[tuple[float, float], ...],
                 seed: int, cont_steps: int) -> np.ndarray:
    """Generator inputs of a code sweep over categorical code 0 (columns)
    against an even grid of continuous code 0 (rows).

    Row r uses one standard-normal noise draw for all its columns, the
    other categorical codes sit at category 0 and the other continuous
    codes at their midpoints.  Layout: z, one-hot codes, continuous codes.
    """
    k = categorical[0]
    z_rows = np.random.default_rng(seed).standard_normal((cont_steps, z_dim))
    batch = cont_steps * k
    parts = [np.repeat(z_rows, k, axis=0)]
    for i, ki in enumerate(categorical):
        oh = np.zeros((batch, ki))
        cols = np.tile(np.arange(k), cont_steps) if i == 0 else np.zeros(batch, int)
        oh[np.arange(batch), cols] = 1.0
        parts.append(oh)
    if continuous:
        cont = np.array([[0.5 * (lo + hi) for lo, hi in continuous]] * batch)
        lo, hi = continuous[0]
        cont[:, 0] = np.repeat(np.linspace(lo, hi, cont_steps), k)
        parts.append(cont)
    return np.concatenate(parts, axis=1)


def sweep_pgm(params: dict[str, np.ndarray], z_dim: int, categorical, continuous,
              seed: int, cont_steps: int) -> bytes:
    """The binary P5 graymap of a sweep: one square image per (row, column)."""
    k = categorical[0]
    out = features_to_bytes(generator_forward(
        params, sweep_inputs(z_dim, categorical, continuous, seed, cont_steps)))
    side = math.isqrt(out.shape[1])
    tiles = out.reshape(cont_steps, k, side, side)
    canvas = tiles.transpose(0, 2, 1, 3).reshape(cont_steps * side, k * side)
    header = f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii")
    return header + canvas.tobytes()


# -- file writers ---------------------------------------------------------

def write_idx_images(path, images: np.ndarray) -> None:
    """IDX image file: magic 0x803, then n, rows, cols as big-endian u32, then bytes."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """IDX label file: magic 0x801, then n as big-endian u32, then one byte per label."""
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def _float_text(v: float) -> str:
    return "inf" if v == math.inf else repr(float(v))


def checkpoint_bytes(gen_params: dict[str, np.ndarray],
                     critic_params: dict[str, np.ndarray],
                     z_dim: int, categorical: tuple[int, ...],
                     continuous: tuple[tuple[float, float], ...],
                     epsilon: float, delta: float, c_p: float, q: float,
                     n_d: int) -> bytes:
    """An ``IMDP`` version-1 checkpoint.

    Little-endian: magic, version and tensor count (``<4sII``); per tensor
    a ``<H`` name length, the UTF-8 name, a ``<B`` rank, ``<I`` dims and
    float64 data; then a ``<I`` length and the spec block, one
    ``latent.*``/``privacy.*`` key=value line each.  Tensors go generator
    first, each net's names sorted.
    """
    tensors = [*sorted(gen_params.items()), *sorted(critic_params.items())]
    out = [struct.pack("<4sII", b"IMDP", 1, len(tensors))]
    for name, arr in tensors:
        raw = name.encode("utf-8")
        out.append(struct.pack("<H", len(raw)) + raw)
        out.append(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    sigma = calibrated_sigma(epsilon, delta, q, n_d)
    lines = [f"latent.z_dim={z_dim}",
             "latent.categorical=" + ",".join(str(k) for k in categorical),
             "latent.continuous=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in continuous),
             f"privacy.epsilon={_float_text(epsilon)}", f"privacy.delta={delta!r}",
             f"privacy.c_p={c_p!r}", f"privacy.q={q!r}", f"privacy.n_d={n_d}",
             f"privacy.sigma={sigma!r}"]
    block = ("\n".join(lines) + "\n").encode("utf-8")
    out.append(struct.pack("<I", len(block)) + block)
    return b"".join(out)


# -- evaluation split -------------------------------------------------------

def held_out_split(pixels: np.ndarray, labels: np.ndarray, seed: int,
                   map_samples: int, pair: tuple[int, int]) -> tuple[int, str]:
    """Row count and SHA-256 of the evaluation's real test rows.

    A permutation from ``default_rng(seed)`` sends its first
    min(map_samples, n // 2) rows to category mapping; the rest, kept to
    the two labels of ``pair``, form the test split.  The digest covers
    the float64 features, then the int64 labels.
    """
    n = len(labels)
    order = np.random.default_rng(seed).permutation(n)
    rest = order[min(map_samples, n // 2):]
    rest = rest[np.isin(labels[rest], pair)]
    x = bytes_to_features(pixels.reshape(n, -1)[rest])
    h = hashlib.sha256(np.ascontiguousarray(x).tobytes())
    h.update(np.ascontiguousarray(labels[rest].astype(np.int64)).tobytes())
    return len(rest), h.hexdigest()
