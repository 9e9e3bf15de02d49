"""Noise calibration, weight clipping, gradient perturbation, and a
moments accountant for the subsampled Gaussian mechanism.

The closed form sigma = 2 q sqrt(n_d log(1/delta)) / epsilon picks the
per-step noise scale for a target privacy level; the accountant runs
alongside training, takes the per-step log-moments at integer orders
from their closed-form binomial sum, and converts the accumulated
moments into a cumulative (epsilon, delta) spend via the standard tail
bound.
The two views are reported side by side and are not reconciled into a
single claim.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ParamStore

INF = float("inf")
LAMBDA_MAX = 32


def check_delta(delta: float) -> None:
    """The range rule of delta: in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def check_epsilon(epsilon: float) -> None:
    """The range rule of epsilon: positive or infinite."""
    if not (epsilon == INF or epsilon > 0.0):
        raise ValueError("epsilon must be positive or infinite")


def check_level(epsilon: float, delta: float) -> None:
    """The range rules of a privacy level: epsilon positive or infinite,
    delta in (0, 1).  Every consumer of a level calls this one check."""
    check_delta(delta)
    check_epsilon(epsilon)


def check_clip(c_p: float) -> None:
    """The range rule of the weight-clipping bound: positive."""
    if not c_p > 0.0:
        raise ValueError("c_p must be positive")


def calibrate_sigma(epsilon: float, delta: float, q: float, n_d: int) -> float:
    """Noise scale for a target privacy level; infinity means no noise.

    DPGAN's formula: the target covers one generator iteration (n_d critic
    steps at sampling ratio q), not a whole run.  It rests on Lemma 3 of
    the moments accountant, which assumes sigma >= 1 and q < 1/(16 sigma).
    """
    check_level(epsilon, delta)
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    if epsilon == INF:
        return 0.0
    return 2.0 * q * math.sqrt(n_d * math.log(1.0 / delta)) / epsilon


@dataclass(frozen=True)
class PrivacySpec:
    """The one description of the private mechanism: its knobs, their
    validation, its checkpoint lines and its manifest lines."""

    epsilon: float
    delta: float
    c_p: float
    q: float
    n_d: int
    sigma: float

    def __post_init__(self):
        check_clip(self.c_p)
        # calibrate_sigma checks epsilon, delta, q and n_d
        want = calibrate_sigma(self.epsilon, self.delta, self.q, self.n_d)
        if self.epsilon == INF:
            if self.sigma != 0.0:
                raise ValueError("epsilon=inf requires sigma=0")
        elif not self.sigma > 0.0:
            raise ValueError("finite epsilon requires sigma > 0")
        elif abs(self.sigma - want) > 1e-9 * max(1.0, want):
            raise ValueError("sigma inconsistent with calibration formula")

    @classmethod
    def calibrated(cls, epsilon: float, delta: float, c_p: float, q: float,
                   n_d: int) -> "PrivacySpec":
        return cls(epsilon=epsilon, delta=delta, c_p=c_p, q=q, n_d=n_d,
                   sigma=calibrate_sigma(epsilon, delta, q, n_d))

    @property
    def private(self) -> bool:
        return self.sigma > 0.0

    def block(self) -> list[str]:
        """Checkpoint lines ``privacy.<field>=<value>``, in field order."""
        return [f"privacy.{f.name}={getattr(self, f.name)}" for f in fields(self)]

    @classmethod
    def from_block(cls, values: dict[str, str]) -> "PrivacySpec":
        """The spec from the values of its ``block`` lines."""
        return cls(**{f.name: (int if f.name == "n_d" else float)(values[f"privacy.{f.name}"])
                      for f in fields(cls)})

    def manifest_entries(self) -> dict[str, str]:
        """A run manifest's privacy lines, with ``calibrate_sigma``'s Lemma 3 range."""
        in_range = self.sigma >= 1.0 and 16.0 * self.q * self.sigma < 1.0
        return {"sigma": repr(self.sigma), "calibration_scope": "generator_iteration",
                "calibration_in_range": str(int(in_range))}


def clip_weights(store: ParamStore, c_p: float, names=None) -> None:
    """Project every parameter entry into [-c_p, c_p], in place."""
    check_clip(c_p)
    for run in store.runs(names):
        np.clip(run.params, -c_p, c_p, out=run.params)


def perturb_gradient(store: ParamStore, sigma: float, c_p: float,
                     rng: np.random.Generator, names=None) -> None:
    """Add i.i.d. Gaussian noise of standard deviation sigma * c_p to every
    gradient entry, in place.  sigma = 0 leaves the slots untouched.

    One draw per run of the store covers its tensors in order, so the
    entries get the same normals as one draw per tensor would."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return
    std = sigma * c_p
    for run in store.runs(names):
        np.add(run.grads, rng.normal(0.0, std, size=run.grads.size), out=run.grads)


# -- log-moments of one noisy step -------------------------------------

@functools.lru_cache(maxsize=64)
def _order_tables(first: int, last: int) -> tuple[np.ndarray, ...]:
    """The parts of the sums over orders first..last that q and sigma do
    not touch, built once per process for each order range (the 64 most
    recently used ranges are kept).

    Row lam - first holds k = 0..last+1 with n = lam+1: the log binomial
    ``lgC(n, k)`` (-inf past k = n, where the term is 0), ``n - k``, ``k``
    and ``k^2 - k``.  The integers are held as float64, which they equal
    exactly, so products with them round as products with ints do.  The
    arrays are shared by every query, so they are read-only.
    """
    n = np.arange(first, last + 1)[:, None] + 1
    k = np.arange(last + 2)
    nk = n - k
    past = nk < 0
    log_fact = np.array([math.lgamma(j + 1) for j in range(last + 2)])
    binom = log_fact[n] - log_fact[k] - log_fact[np.where(past, 0, nk)]
    binom[past] = -math.inf
    tables = (binom, nk.astype(np.float64), k.astype(np.float64),
              (k * k - k).astype(np.float64))
    for table in tables:
        table.flags.writeable = False
    return tables


def _log_moments(q: float, sigma: float, first: int, last: int) -> list[float]:
    """alpha(lam) for lam = first..last, as ``step_log_moment`` defines it.

    Row lam - first of a term matrix holds the summands k = 0..last+1 in
    log space, each formed by the same IEEE operations in the same order as
    the scalar sum ``lgC + (n-k) log(1-q) + k log q + (k^2-k) / (2 sigma^2)``
    with n = lam+1.  Past k = n the cached log binomial is -inf, and so is
    the sum, as every other term is finite.  ``math.exp``, ``math.fsum``
    and ``math.log`` then finish each row over its k = 0..n cells; the
    cells left out would add exact zeros.  So the result is bit-identical
    to summing each order on its own.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if first < 1:
        raise ValueError("lam must be >= 1")
    inv = 0.5 / sigma / sigma
    orders = range(first, last + 1)
    if not math.isfinite(last * (last + 1) * inv):
        # lam (lam+1) inv grows with lam: name the first order that overflows
        lam = next(lam for lam in orders if not math.isfinite(lam * (lam + 1) * inv))
        raise ValueError(f"sigma={sigma!r} too small: the order-{lam} moment "
                         "overflows float64")
    if q == 1.0:
        return [lam * (lam + 1) * inv for lam in orders]  # only k = lam+1 survives
    binom, nk, k, kk = _order_tables(first, last)
    terms = binom + nk * math.log1p(-q)
    terms += k * math.log(q)
    terms += kk * inv
    tops = terms.max(axis=1)
    terms -= tops[:, None]
    return [max(top + math.log(math.fsum(map(math.exp, row[:lam + 2]))), 0.0)
            for top, row, lam in zip(tops.tolist(), terms.tolist(), orders)]


def step_log_moment(q: float, sigma: float, lam: int) -> float:
    """Log-moment of one subsampled Gaussian step at integer order lam.

    For integer lam, the log-moment of the privacy loss of the mixture
    (1-q) N(0, sigma^2) + q N(1, sigma^2) against N(0, sigma^2) is the
    finite binomial sum

        alpha(lam) = log sum_k C(lam+1, k) (1-q)^(lam+1-k) q^k exp((k^2-k) / (2 sigma^2))

    (Abadi et al. 2016), evaluated here in log space.  The reverse
    direction never exceeds it (Mironov, Talwar & Zhang 2019), so it is
    the moment of the step.  A sigma so small that the k = lam+1 exponent
    overflows float64 is rejected.
    """
    return _log_moments(q, sigma, lam, lam)[0]


@dataclass(frozen=True)
class AccountantState:
    """Accumulated log-moments of a fixed mechanism after some steps."""

    q: float
    sigma: float
    steps: int
    step_moments: np.ndarray  # alpha(lam) of a single step, lam = 1..LAMBDA_MAX

    @classmethod
    def create(cls, q: float, sigma: float) -> "AccountantState":
        moments = np.array(_log_moments(q, sigma, 1, LAMBDA_MAX))
        return cls(q=q, sigma=sigma, steps=0, step_moments=moments)

    @functools.cached_property
    def log_moments(self) -> np.ndarray:
        """alpha(lam) accumulated over all recorded steps; computed once
        per state and read-only."""
        moments = self.steps * self.step_moments
        moments.flags.writeable = False
        return moments


def accumulate(state: AccountantState, steps: int) -> AccountantState:
    """Record additional noisy steps; moments compose additively."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if state.steps + steps > sys.float_info.max:  # the moments are its float products
        raise ValueError(f"steps must total at most {sys.float_info.max:g}")
    return AccountantState(q=state.q, sigma=state.sigma, steps=state.steps + steps,
                           step_moments=state.step_moments)


# the orders 1..LAMBDA_MAX as read-only float64, which they equal exactly
_ORDERS = np.arange(1.0, LAMBDA_MAX + 1)
_ORDERS.flags.writeable = False


def spent_epsilon(state: AccountantState, delta: float) -> float:
    """Tail-bound conversion: min over lam of (alpha(lam) + log(1/delta)) / lam.

    With zero steps this floors at log(1/delta) / LAMBDA_MAX, the
    smallest epsilon the finite moment range can certify.
    """
    check_delta(delta)
    return float(np.min((state.log_moments + math.log(1.0 / delta)) / _ORDERS))
