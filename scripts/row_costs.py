#!/usr/bin/env python3
"""Cost of `sampling.row_map` rows in edge draws, the unit of the split rule.

Times, best of five each, the mass-certificate rows (cover plus scheme
masses) and the kernel-MC rows of a few instances, and the draw itself
on Karp-Sipser n=200 c=1 (2,000 samples) before and after each case, so
the ratio does not follow the machine's speed drifting between cases.
Monte Carlo cases have their own draws taken out, exact cases the
split rule's m draws a row.  Prints per case the cover cost per
realized edge, and per instance the kernel cost per (sample, edge)
beyond its draw, then the medians, which ``sampling.SPLIT_MIN_WORK``'s
comment records.  Run it on one CPU, so no map is split:

    PYTHONPATH=src taskset -c 0 python scripts/row_costs.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from matchgap import estimate
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser, gen_pendant_star,
                              gen_random_point)
from matchgap.sampling import realization_blocks, support_probabilities

DRAW_INSTANCE = gen_karp_sipser(200, 1.0, "bipartite")

CASES = [  # (label, instance, samples; None for exact enumeration)
    ("equal_split_star n=7 exact", gen_equal_split_star(7, 0.1), None),
    ("equal_split_star n=7 mc", gen_equal_split_star(7, 0.1), 8192),
    ("pendant_star n=30 mc", gen_pendant_star(30, 0.1), 20000),
    ("random_point n=10 d=0.5 mc", gen_random_point(10, 0.5, 1), 5000),
    ("random_point n=30 d=0.3 mc", gen_random_point(30, 0.3, 2), 2000),
    ("karp_sipser n=50 mc", gen_karp_sipser(50, 1.0, "bipartite"), 1000),
]


def best(f, tries: int = 5) -> float:
    times = []
    for _ in range(tries):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times)


def drawn(inst, samples: int) -> float:
    return best(lambda: [None for _ in realization_blocks(inst, 0, 0, samples)])


def draw_seconds() -> float:
    return drawn(DRAW_INSTANCE, 2000) / (2000 * DRAW_INSTANCE.num_edges)


def main() -> None:
    cover, kernel = [], []
    for label, inst, samples in CASES:
        m, x = inst.num_edges, inst.x
        schemes = ("weighted", "unweighted") if inst.is_unweighted else ("weighted",)
        for scheme in schemes:
            before = draw_seconds()
            if samples is None:  # the split rule's m draws a row stand for its mask
                rows, own = np.count_nonzero(support_probabilities(inst)), m
                realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0) & (x < 1))
                t = best(lambda: estimate.per_edge_masses_exact(inst, scheme))
            else:
                rows, own, realized = samples, 0, float(x.sum())
                t = best(lambda: estimate.per_edge_certificates(
                    inst, "mc", scheme, "mass", samples=samples, seed=0))
                t -= drawn(inst, samples)
            draw = (before + draw_seconds()) / 2
            per_edge = (t / rows / draw - own) / realized
            cover.append(per_edge)
            print(f"cover  {label:28s} {scheme:10s} {t / rows * 1e6:7.1f} us/row  "
                  f"{per_edge:6.0f} draws per realized edge")
        if samples is not None:
            draw = draw_seconds()
            t = best(lambda: estimate._kernel_means_mc(inst, samples, 0)) - drawn(inst, samples)
            kernel.append(t / (samples * m) / draw)
            print(f"kernel {label:28s} {kernel[-1]:5.1f} draws per (sample, edge)")
    print(f"cover per realized edge: median {statistics.median(cover):.0f}, "
          f"range {min(cover):.0f}-{max(cover):.0f}")
    print(f"kernel per (sample, edge): median {statistics.median(kernel):.1f}, "
          f"range {min(kernel):.1f}-{max(kernel):.1f}")


if __name__ == "__main__":
    main()
