import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imdp.autodiff import ParamStore
from imdp.privacy import (_ORDERS, INF, LAMBDA_MAX, AccountantState, PrivacySpec, _log_moments,
                          _order_tables, accumulate, calibrate_sigma, clip_weights,
                          perturb_gradient, spent_epsilon, step_log_moment)

# frozen from a 40-digit desk calculation of 2 q sqrt(n_d log(1/delta)) / eps
# at delta=1e-5, q=64/60000, n_d=5
CALIBRATED = {
    1.22: 0.013267122442711662084,
    2.2: 0.007357222445503739883,
    5.5: 0.0029428889782014959532,
}


class TestCalibrateSigma:
    def test_infinite_epsilon_means_no_noise(self):
        assert calibrate_sigma(INF, 1e-5, 64 / 60000, 5) == 0.0

    @pytest.mark.parametrize("eps,want", sorted(CALIBRATED.items()))
    def test_matches_desk_calculation(self, eps, want):
        got = calibrate_sigma(eps, 1e-5, 64 / 60000, 5)
        assert abs(got - want) <= 1e-12 * want

    def test_halving_epsilon_doubles_sigma(self):
        a = calibrate_sigma(3.0, 1e-5, 0.01, 5)
        b = calibrate_sigma(1.5, 1e-5, 0.01, 5)
        assert b == pytest.approx(2.0 * a, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.5, 1.22, 2.2, 5.5, 10.0, 100.0])
    @pytest.mark.parametrize("q", [1e-4, 64 / 60000, 0.1, 1.0])
    def test_cross_multiplied_identity(self, eps, q):
        sigma = calibrate_sigma(eps, 1e-5, q, 5)
        lhs = sigma * eps
        rhs = 2.0 * q * math.sqrt(5 * math.log(1e5))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("bad", [
        dict(epsilon=-1.0, delta=1e-5, q=0.5, n_d=5),
        dict(epsilon=0.0, delta=1e-5, q=0.5, n_d=5),
        dict(epsilon=1.0, delta=0.0, q=0.5, n_d=5),
        dict(epsilon=1.0, delta=1.0, q=0.5, n_d=5),
        dict(epsilon=1.0, delta=1e-5, q=0.0, n_d=5),
        dict(epsilon=1.0, delta=1e-5, q=1.5, n_d=5),
        dict(epsilon=1.0, delta=1e-5, q=0.5, n_d=0),
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            calibrate_sigma(**bad)


class TestPrivacySpec:
    def test_infinity_requires_zero_sigma(self):
        PrivacySpec(epsilon=INF, delta=1e-5, c_p=0.01, q=0.1, n_d=5, sigma=0.0)
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=INF, delta=1e-5, c_p=0.01, q=0.1, n_d=5, sigma=1.0)

    def test_finite_epsilon_requires_consistent_sigma(self):
        spec = PrivacySpec.calibrated(2.2, 1e-5, 0.01, 64 / 60000, 5)
        assert spec.sigma == pytest.approx(CALIBRATED[2.2], rel=1e-12)
        with pytest.raises(ValueError):
            PrivacySpec(epsilon=2.2, delta=1e-5, c_p=0.01, q=64 / 60000, n_d=5,
                        sigma=2 * spec.sigma)


class TestClipWeights:
    def test_entries_projected(self):
        store = ParamStore({"w": np.array([0.02, -0.5, 0.005])})
        clip_weights(store, 0.01)
        np.testing.assert_array_equal(store.params["w"], [0.01, -0.01, 0.005])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        store = ParamStore({"w": rng.normal(size=50)})
        clip_weights(store, 0.01)
        once = store.params["w"].copy()
        clip_weights(store, 0.01)
        np.testing.assert_array_equal(store.params["w"], once)

    def test_composition_equals_smaller_clip(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=50)
        a = ParamStore({"w": vals.copy()})
        clip_weights(a, 0.05)
        clip_weights(a, 0.01)
        b = ParamStore({"w": vals.copy()})
        clip_weights(b, 0.01)
        np.testing.assert_array_equal(a.params["w"], b.params["w"])

    def test_restricted_names(self):
        store = ParamStore({"keep": np.array([5.0]), "clip": np.array([5.0])})
        clip_weights(store, 0.01, names=["clip"])
        assert store.params["keep"][0] == 5.0
        assert store.params["clip"][0] == 0.01

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            clip_weights(ParamStore({"w": np.zeros(1)}), 0.0)


class TestPerturbGradient:
    def test_sigma_zero_is_bit_exact_noop(self):
        store = ParamStore({"w": np.zeros(100)})
        store.grads["w"][...] = np.random.default_rng(0).normal(size=100)
        before = store.grads["w"].tobytes()
        perturb_gradient(store, 0.0, 0.01, np.random.default_rng(1))
        assert store.grads["w"].tobytes() == before

    def test_noise_statistics(self):
        store = ParamStore({"w": np.zeros(100000)})
        perturb_gradient(store, 1.0, 0.01, np.random.default_rng(7))
        draws = store.grads["w"]
        se = 0.01 / math.sqrt(draws.size)
        assert abs(draws.mean()) < 4 * se
        assert 0.0095 < draws.std() < 0.0105

    def test_fixed_seed_reproducible(self):
        a = ParamStore({"w": np.zeros(64)})
        b = ParamStore({"w": np.zeros(64)})
        perturb_gradient(a, 1.5, 0.01, np.random.default_rng(42))
        perturb_gradient(b, 1.5, 0.01, np.random.default_rng(42))
        assert a.grads["w"].tobytes() == b.grads["w"].tobytes()

    def test_runwise_draws_equal_per_tensor_draws(self):
        u = ParamStore({"w": np.zeros((3, 4)), "b": np.zeros(4), "v": np.zeros((5, 2))})
        rng = np.random.default_rng(3)
        for slot in u.grads.values():
            slot[...] = rng.normal(size=slot.shape)
        for names in (None, ["w", "v"]):
            want = {n: g.copy() for n, g in u.grads.items()}
            ref = np.random.default_rng(42)
            for n in (u.names() if names is None else names):
                want[n] += ref.normal(0.0, 1.5 * 0.01, size=want[n].shape)
            perturb_gradient(u, 1.5, 0.01, np.random.default_rng(42), names)
            for n in want:
                assert u.grads[n].tobytes() == want[n].tobytes(), (names, n)
        assert len(u.runs()) == 1 and len(u.runs(["w", "v"])) == 2

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            perturb_gradient(ParamStore({"w": np.zeros(1)}), -1.0, 0.01,
                             np.random.default_rng(0))


def binomial_log_moment(q, sigma, lam):
    """Mixture-over-base moment for integer orders, expanded over the
    lam draws from the mixture (not the program's lam+1 expansion)."""
    from scipy.special import gammaln, logsumexp
    s2 = 2.0 * sigma * sigma
    terms = []
    for j in range(lam + 1):
        lcomb = gammaln(lam + 1) - gammaln(j + 1) - gammaln(lam - j + 1)
        base = lcomb + (lam - j) * math.log1p(-q) + j * math.log(q)
        inner = logsumexp([math.log1p(-q) + j * (j - 1) / s2,
                           math.log(q) + j * (j + 1) / s2])
        terms.append(base + inner)
    return float(logsumexp(terms))


def quadrature_log_moment(q, sigma, lam, mixture_num):
    """log of the integral of mu_num^(lam+1) / mu_den^lam by adaptive
    quadrature, with mu0 = N(0, sigma^2) and mu = (1-q) mu0 + q N(1, sigma^2);
    mixture_num picks mu over mu0, else mu0 over mu.  The integrand is a
    sum of Gaussian bumps at integers in [-(lam+1), lam+2], given as
    break points; the log integrand's peak is shifted out before exp."""
    from scipy.integrate import quad

    def log_f(x):
        x = np.asarray(x, dtype=np.float64)
        l0 = -x * x / (2.0 * sigma * sigma)
        l1 = -(x - 1.0) ** 2 / (2.0 * sigma * sigma)
        lm = l1 if q == 1.0 else np.logaddexp(math.log1p(-q) + l0, math.log(q) + l1)
        num, den = (lm, l0) if mixture_num else (l0, lm)
        return (lam + 1.0) * num - lam * den - math.log(sigma * math.sqrt(2.0 * math.pi))

    lo, hi = -(lam + 1.5) - 24.0 * sigma, lam + 2.5 + 24.0 * sigma
    centers = np.arange(-(lam + 1), lam + 3, dtype=np.float64)
    shift = float(np.max(log_f(np.concatenate([np.linspace(lo, hi, 4097), centers]))))
    value, abserr = quad(lambda x: math.exp(log_f(x) - shift), lo, hi,
                         points=centers, limit=4000, epsabs=1e-13, epsrel=1e-11)
    assert value > 0.0 and abserr <= 1e-8 * value, "quadrature did not converge"
    return shift + math.log(value)


def scalar_log_moment(q: float, sigma: float, lam: int) -> float:
    """The program's binomial sum for one order, one term at a time: the
    reference the all-orders array form must match bit for bit."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    n = lam + 1
    inv = 0.5 / sigma / sigma
    if not math.isfinite(lam * n * inv):
        raise ValueError(f"sigma={sigma!r} too small: the order-{lam} moment "
                         "overflows float64")
    if q == 1.0:
        return lam * n * inv  # only k = lam+1 survives
    log_q, log_1mq = math.log(q), math.log1p(-q)
    terms = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
             + (n - k) * log_1mq + k * log_q + (k * k - k) * inv
             for k in range(n + 1)]
    top = max(terms)
    return max(top + math.log(math.fsum(math.exp(t - top) for t in terms)), 0.0)


BIT_GRID_Q = (64 / 768, 64 / 60000, 1 / 16, 0.5, 1.0)
BIT_GRID_SIGMA = (0.0029, 0.43, 1.036, 1e-7, 2.0)


class TestLogMomentBitIdentity:
    """The all-orders sum equals the one-order scalar sum exactly."""

    @pytest.mark.parametrize("q", BIT_GRID_Q)
    @pytest.mark.parametrize("sigma", BIT_GRID_SIGMA)
    def test_every_order_equals_scalar_sum(self, q, sigma):
        want = [scalar_log_moment(q, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)]
        assert AccountantState.create(q, sigma).step_moments.tolist() == want
        assert [step_log_moment(q, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)] == want

    @pytest.mark.parametrize("q", BIT_GRID_Q)
    def test_orders_beyond_lambda_max(self, q):
        for sigma in (0.43, 2.0):
            for lam in (LAMBDA_MAX + 1, 2 * LAMBDA_MAX, 100):
                assert step_log_moment(q, sigma, lam) == scalar_log_moment(q, sigma, lam)

    def test_mnist_ratio_at_the_paper_levels(self):
        q = 64 / 60000
        for eps in (5.5, 2.2, 1.22):
            sigma = calibrate_sigma(eps, 1e-5, q, 5)
            want = [scalar_log_moment(q, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)]
            assert AccountantState.create(q, sigma).step_moments.tolist() == want

    def test_sigma_beyond_float_range_still_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            AccountantState.create(0.5, 1e-200)
        with pytest.raises(ValueError, match="too small"):
            step_log_moment(0.5, 1e-200, LAMBDA_MAX + 8)

    def test_overflow_names_the_first_order_that_overflows(self):
        sigma = 1.2e-153  # orders up to 22 are finite, 23 and above overflow
        with pytest.raises(ValueError) as want:
            [scalar_log_moment(0.5, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)]
        with pytest.raises(ValueError) as got:
            AccountantState.create(0.5, sigma)
        assert str(got.value) == str(want.value)
        assert "order-23 " in str(got.value)
        for lam in (1, 22, 23, LAMBDA_MAX, LAMBDA_MAX + 1):
            try:
                want_value = scalar_log_moment(0.5, sigma, lam)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    step_log_moment(0.5, sigma, lam)
                assert str(got.value) == str(exc)
            else:
                assert step_log_moment(0.5, sigma, lam) == want_value


class TestOrderTables:
    """The tables cached per order range carry nothing from one query to
    the next, and nothing can write into them."""

    QUERIES = [  # (q, sigma, first order, last order)
        (64 / 768, 1.036, 1, LAMBDA_MAX),
        (64 / 60000, 0.0029, 5, 9),
        (0.5, 2.0, LAMBDA_MAX + 1, 40),
        (0.25, 0.43, 1, LAMBDA_MAX),
        (64 / 768, 1.036, 5, 9),
        (1.0, 2.0, 3, 3),
        (64 / 60000, 0.0029, 1, LAMBDA_MAX),
        (1 / 16, 1e-7, 2, LAMBDA_MAX + 3),
        (0.5, 2.0, 1, 1),
    ]

    def test_interleaved_queries_equal_scalar_sums(self):
        for _ in range(2):
            for q, sigma, first, last in self.QUERIES:
                want = [scalar_log_moment(q, sigma, lam) for lam in range(first, last + 1)]
                assert _log_moments(q, sigma, first, last) == want
                assert step_log_moment(q, sigma, last) == want[-1]
                assert step_log_moment(q, sigma, first) == want[0]
                full = [scalar_log_moment(q, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)]
                assert AccountantState.create(q, sigma).step_moments.tolist() == full

    @pytest.mark.parametrize("first,last", [(1, LAMBDA_MAX), (5, 9), (LAMBDA_MAX + 1, 40)])
    def test_cached_arrays_are_read_only(self, first, last):
        _log_moments(0.25, 0.43, first, last)
        tables = _order_tables(first, last)
        assert tables is _order_tables(first, last)
        for table in (*tables, _ORDERS):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0
        state = accumulate(AccountantState.create(0.25, 0.43), 3)
        assert state.log_moments is state.log_moments
        with pytest.raises(ValueError):
            state.log_moments[0] = 0.0

    def test_tables_hold_minus_inf_exactly_past_k_equals_n(self):
        binom, nk, k, kk = _order_tables(1, LAMBDA_MAX)
        assert binom.shape == (LAMBDA_MAX, LAMBDA_MAX + 2)
        np.testing.assert_array_equal(np.isneginf(binom), nk < 0)
        assert np.isfinite(binom[nk >= 0]).all()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           sigma=st.floats(min_value=0.003, max_value=10.0))
    def test_property_every_order_equals_scalar_sum(self, q, sigma):
        want = [scalar_log_moment(q, sigma, lam) for lam in range(1, LAMBDA_MAX + 1)]
        assert AccountantState.create(q, sigma).step_moments.tolist() == want


class TestStepLogMoment:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    def test_q_one_matches_analytic_log_mgf(self, sigma):
        for lam in range(1, 33):
            want = lam * (lam + 1) / (2.0 * sigma * sigma)
            assert step_log_moment(1.0, sigma, lam) == pytest.approx(want, abs=1e-9)

    def test_vanishing_q_means_vanishing_loss(self):
        assert step_log_moment(1e-9, 1.0, 8) < 1e-12

    def test_more_noise_less_loss(self):
        assert step_log_moment(0.01, 1.0, 8) > step_log_moment(0.01, 2.0, 8)

    def test_matches_independent_binomial_expansion(self):
        for q, sigma, lam in [(0.01, 1.0, 8), (0.1, 0.7, 16), (0.5, 2.0, 32),
                              (0.001, 4.0, 32), (0.0625, 0.78, 12)]:
            got = step_log_moment(q, sigma, lam)
            want = binomial_log_moment(q, sigma, lam)
            assert got >= want - 1e-9
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("q", [0.01, 0.0625, 0.3, 1.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 4.0])
    def test_matches_quadrature_of_both_directions(self, q, sigma):
        for lam in (1, 4, 16, 32):
            got = step_log_moment(q, sigma, lam)
            assert got == pytest.approx(quadrature_log_moment(q, sigma, lam, True),
                                        rel=1e-8, abs=1e-8)
            assert quadrature_log_moment(q, sigma, lam, False) <= got + 1e-8 * max(1.0, got)

    def test_non_negative(self):
        assert step_log_moment(0.3, 3.0, 1) >= 0.0

    def test_tiny_sigma_is_finite_and_exact(self):
        for lam in (1, 4, 32):
            got = step_log_moment(0.5, 1e-7, lam)
            assert math.isfinite(got)
            assert got == pytest.approx(binomial_log_moment(0.5, 1e-7, lam), rel=1e-12)

    def test_sigma_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            step_log_moment(0.5, 1e-200, 1)

    @pytest.mark.parametrize("bad", [dict(q=0.0, sigma=1.0, lam=1),
                                     dict(q=0.5, sigma=0.0, lam=1),
                                     dict(q=0.5, sigma=1.0, lam=0)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            step_log_moment(**bad)


class TestAccountant:
    def test_zero_steps_reports_floor(self):
        state = AccountantState.create(0.5, 2.0)
        # frozen desk value of log(1e5)/32
        assert spent_epsilon(state, 1e-5) == pytest.approx(0.35977892078031963813, rel=1e-12)

    def test_accumulate_zero_is_identity(self):
        state = AccountantState.create(0.5, 2.0)
        assert accumulate(state, 0) == state

    def test_total_steps_beyond_float_range_rejected(self):
        state = accumulate(AccountantState.create(0.5, 1.0), 10**308)
        with pytest.raises(ValueError, match="steps must total at most"):
            accumulate(state, 10**308)
        with pytest.raises(ValueError, match="steps must total at most"):
            accumulate(AccountantState.create(0.5, 1.0), 10**400)

    def test_accumulate_is_additive(self):
        state = AccountantState.create(0.25, 1.5)
        a = accumulate(accumulate(state, 7), 5)
        b = accumulate(state, 12)
        assert a.steps == b.steps
        np.testing.assert_array_equal(a.log_moments, b.log_moments)

    def test_moments_scale_linearly_with_steps(self):
        state = AccountantState.create(0.1, 1.0)
        one = accumulate(state, 1)
        many = accumulate(state, 11)
        np.testing.assert_allclose(many.log_moments, 11 * one.log_moments, rtol=0)

    def test_epsilon_non_decreasing_in_steps(self):
        state = AccountantState.create(0.0625, 0.8)
        eps = [spent_epsilon(accumulate(state, t), 1e-5) for t in (0, 10, 100, 1000)]
        assert eps == sorted(eps)

    def test_epsilon_non_increasing_in_sigma(self):
        lo = accumulate(AccountantState.create(0.1, 0.8), 100)
        hi = accumulate(AccountantState.create(0.1, 1.6), 100)
        assert spent_epsilon(lo, 1e-5) > spent_epsilon(hi, 1e-5)

    def test_epsilon_non_decreasing_in_q(self):
        lo = accumulate(AccountantState.create(0.05, 1.0), 100)
        hi = accumulate(AccountantState.create(0.2, 1.0), 100)
        assert spent_epsilon(hi, 1e-5) > spent_epsilon(lo, 1e-5)

    def test_single_gaussian_step_matches_integer_minimization(self):
        # frozen: argmin over integer orders of (l(l+1)/32 + log(1e5)) / l is l=19
        state = accumulate(AccountantState.create(1.0, 4.0), 1)
        want = min((l * (l + 1) / 32.0 + math.log(1e5)) / l for l in range(1, 33))
        assert spent_epsilon(state, 1e-5) == pytest.approx(want, abs=1e-9)
        assert spent_epsilon(state, 1e-5) == pytest.approx(1.2309434455247488642, abs=1e-9)

    def test_rejects_bad_delta(self):
        state = AccountantState.create(0.5, 2.0)
        with pytest.raises(ValueError):
            spent_epsilon(state, 0.0)
