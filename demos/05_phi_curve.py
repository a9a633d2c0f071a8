#!/usr/bin/env python3
"""Walkthrough: the scaled-probability curve phi(t) and its differential bound.

phi(t) is the expected matching weight when every edge probability is
multiplied by t.  The pointwise inequality
    sum_e x_e (nu(G + e) - nu(G - e)) + 2 nu(G) >= sum_e x_e w_e
integrates to e^2 phi(1) >= (e^2 - 1)/2 * sum w x, which is exactly the
general-graph floor (e^2 - 1)/(2 e^2).
"""

from matchgap import (GENERAL_GRAPH_FLOOR, check_local_derivative_bound,
                      check_phi_differential, fractional_value, phi_curve, sample)
from matchgap.gallery import gen_random_point

inst = gen_random_point(5, 0.6, seed=3, kind="general")
denom = fractional_value(inst)
print(f"general instance: {inst.num_edges} potential edges, fractional value {denom:.4f}")

print()
print("exact phi on a 10-point grid:")
curve = phi_curve(inst, grid_points=10, mode="exact")
for t, phi in curve:
    bar = "#" * int(40 * phi / max(curve[-1, 1], 1e-12))
    print(f"  t={t:4.2f}  phi={phi:8.4f}  {bar}")

print()
print("the pointwise inequality on a few sampled subgraphs:")
for i in range(3):
    g = sample(inst, seed=2, index=i)
    rep = check_local_derivative_bound(g)
    print(f"  sample {i}: lhs {rep.details['lhs']:.4f} >= rhs {rep.details['rhs']:.4f}"
          f"  margin {rep.min_value:+.4f}")

print()
rep = check_phi_differential(inst, grid_points=100)
print(f"forward differences of e^(2t) phi vs e^(2t) sum(w x): "
      f"worst margin {rep.min_value:+.4f} at t = {rep.argmin}")
print(f"endpoint: e^2 phi(1) - (e^2-1)/2 sum(w x) = {rep.details['endpoint_margin']:+.4f}")
print(f"ratio phi(1)/sum(w x) = {curve[-1, 1] / denom:.4f} "
      f">= (e^2-1)/(2e^2) = {GENERAL_GRAPH_FLOOR:.4f}")
