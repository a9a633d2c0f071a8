#!/usr/bin/env python3
"""Walkthrough: the analytic certification suite.

Runs the grid checks behind the floors one at a time: the worst mean-1
Bernoulli pair, equal-split minimality (and how it breaks for small
transfer constants), the truncated-series envelope with its 0.476 / 0.467
story, and the closed-form constants.
"""

from matchgap import (GENERAL_GRAPH_FLOOR, KernelConfig, binomial_max1_kernel,
                      check_unweighted_envelope, envelope_ratio, inv_max_expectation,
                      verify_equal_split, verify_kernel_minimizer,
                      weighted_kernel_constant)

print("=" * 70)
print("1. Worst mean-1 degree pair: grids vs the binomial reference")
print("=" * 70)
for m in (1, 2, 3, 4):
    rep = verify_kernel_minimizer(m, grid_step=0.05)
    print(f"m={m}: grid min {rep.min_value:.6f}  reference {rep.details['reference']:.6f}"
          f"  margin {rep.details['margin']:+.2e}  passed={rep.passed}")
print("finite-m references decrease toward 1 - 3/(2e):",
      [round(binomial_max1_kernel(m), 5) for m in (2, 5, 20, 100)])

print()
print("=" * 70)
print("2. Equal split is the in-bucket minimizer exactly when c >= 1/6")
print("=" * 70)
for c in (0.0, 0.10, 1 / 6, 0.30):
    worst = min(verify_equal_split(x0, 2, 0.05, c=c).min_value
                for x0 in (0.1, 0.3, 0.5, 0.7, 0.9))
    print(f"c = {c:.4f}: worst bucket margin {worst:+.6f}"
          f"  ({'holds' if worst >= -1e-9 else 'violated'})")

print()
print("=" * 70)
print("3. The unweighted envelope P_15(x) - x/3 over [0, 1]")
print("=" * 70)
rep = check_unweighted_envelope(KernelConfig(grid_step=1e-3))
xs = [0.0, 0.1, 0.219, 0.5, 1.0]
for x in xs:
    print(f"  ratio({x:5.3f}) = {float(envelope_ratio(x)):.6f}")
print(f"grid minimum {rep.min_value:.6f} at x = {rep.argmin}")
print(f"x = 0 endpoint {rep.details['endpoint_value']:.6f} >= 0.476: the often-quoted")
print("0.476 holds only there; over the full range the certifiable floor is 0.467")

print()
print("=" * 70)
print("4. Closed-form constants")
print("=" * 70)
const = weighted_kernel_constant()
print(f"weighted bipartite floor: 1 - 3/(2e) = {const.closed_form:.12f}")
print(f"  series evaluation agrees to {abs(const.closed_form - const.series_value):.1e}")
print(f"weighted general floor: (e^2-1)/(2e^2) = {GENERAL_GRAPH_FLOOR:.12f}")
print(f"kernel at the degenerate/uniform pair, m=2: "
      f"{inv_max_expectation([1.0, 0.0], [0.5, 0.5]):.6f} = 11/24")
