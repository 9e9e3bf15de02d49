"""Noise calibration and the moments accountant, side by side.

First the closed form that picks a noise scale for a target privacy
level, then the accountant view: per-order log-moments of the
subsampled Gaussian step and the cumulative spend they certify.
"""
import numpy as np

from imdp.privacy import (AccountantState, accumulate, calibrate_sigma,
                          spent_epsilon, step_log_moment)

delta = 1e-5
q = 64 / 60000
n_d = 5

print("calibration at delta=1e-5, q=64/60000, n_d=5")
for eps in (1.22, 2.2, 5.5, float("inf")):
    sigma = calibrate_sigma(eps, delta, q, n_d)
    print(f"  epsilon={eps:<6} -> sigma={sigma:.6g}")

print()
print("single-step log-moments, q=1 (no subsampling): accountant vs analytic")
for sigma in (1.0, 4.0):
    for lam in (1, 8, 32):
        got = step_log_moment(1.0, sigma, lam)
        want = lam * (lam + 1) / (2 * sigma * sigma)
        print(f"  sigma={sigma} lam={lam:>2}: {got:.9f} (analytic {want:.9f})")

print()
print("cumulative spend of a desk-scale run: q=1/12, epsilon target 1.22")
sigma = calibrate_sigma(1.22, delta, 64 / 768, n_d)
state = AccountantState.create(64 / 768, sigma)
for iters in (100, 500, 2500):
    spent = spent_epsilon(accumulate(state, iters * n_d), delta)
    print(f"  after {iters:>5} generator iterations: accountant epsilon = {spent:.4g}")
print("  (the per-loop calibration target and the cumulative accountant view")
print("   are reported side by side; they answer different questions)")
