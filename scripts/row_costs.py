#!/usr/bin/env python3
"""Cost of `sampling.row_map` rows in edge draws, the unit of the split
rule.

Times, best of five each, the Monte Carlo value rows of the two ``mc``
benchmark instances and the mass-certificate rows (covers plus scheme
masses) of a few instances, and the draw itself on Karp-Sipser n=200
c=1 (2,000 samples) before and after each case, so the ratio does not
follow the machine's speed drifting between cases.  Prints the draw rate
in hashes per second first.  Monte Carlo cases have their own draws
taken out, exact cases the split rule's m draws a row.  Prints per case
the value or cover cost per realized edge, and the covers' median and
range, which ``sampling.SPLIT_MIN_WORK``'s comment records.

Kernel-MC rows are timed against their own draw, the two alternately,
seven times each; the kernel's cost per (sample, edge) beyond its draw
is the median of the paired differences.  Where the kernel is within the
draw's run-to-run noise that median is not positive, and the case prints
"below draw noise" and stays out of the kernel median and range.  Run it
on one CPU, so no map is split:

    PYTHONPATH=src taskset -c 0 python scripts/row_costs.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from matchgap import estimate, matching
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser, gen_pendant_star,
                              gen_random_point)
from matchgap.sampling import realization_blocks, sample_values, support_probabilities

DRAW_INSTANCE = gen_karp_sipser(200, 1.0, "bipartite")

VALUE_CASES = [  # the ``mc`` benchmark workloads at seed 1: (label, instance, samples)
    ("karp_sipser n=200 mc", DRAW_INSTANCE, 2000),
    ("random_point n=100 d=0.1 mc", gen_random_point(100, 0.1, 1), 8000),
]

CASES = [  # (label, instance, samples; None for exact enumeration)
    ("equal_split_star n=7 exact", gen_equal_split_star(7, 0.1), None),
    ("equal_split_star n=7 mc", gen_equal_split_star(7, 0.1), 8192),
    ("pendant_star n=30 mc", gen_pendant_star(30, 0.1), 20000),
    ("random_point n=10 d=0.5 mc", gen_random_point(10, 0.5, 1), 5000),
    ("random_point n=30 d=0.3 mc", gen_random_point(30, 0.3, 2), 2000),
    ("karp_sipser n=50 mc", gen_karp_sipser(50, 1.0, "bipartite"), 1000),
]


def timed(f) -> float:
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


def best(f, tries: int = 5) -> float:
    return min(timed(f) for _ in range(tries))


def paired(f, g, tries: int = 7) -> float:
    """Median over `tries` of f's time less g's, the two timed alternately."""
    return statistics.median(timed(f) - timed(g) for _ in range(tries))


def draw_only(inst, samples: int) -> None:
    for _ in realization_blocks(inst, 0, 0, samples):
        pass


def drawn(inst, samples: int) -> float:
    return best(lambda: draw_only(inst, samples))


def draw_seconds() -> float:
    return drawn(DRAW_INSTANCE, 2000) / (2000 * DRAW_INSTANCE.num_edges)


def main() -> None:
    print(f"draw: {1 / draw_seconds():.3g} hashes/s (karp_sipser n=200, 2,000 samples)")
    for label, inst, samples in VALUE_CASES:
        before = draw_seconds()
        solve = matching.value_solver(inst)
        t = best(lambda: sample_values(inst, solve, 1, 0, samples)) - drawn(inst, samples)
        draw = (before + draw_seconds()) / 2
        print(f"value  {label:28s} {t / samples * 1e6:7.1f} us/row  "
              f"{t / samples / draw / float(inst.x.sum()):6.0f} draws per realized edge")
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
            cover.append((t / rows / draw - own) / realized)
            print(f"cover  {label:28s} {scheme:10s} {t / rows * 1e6:7.1f} us/row  "
                  f"{cover[-1]:6.0f} draws per realized edge")
        if samples is not None:
            draw = draw_seconds()
            t = paired(lambda: estimate._kernel_means_mc(inst, samples, 0),
                       lambda: draw_only(inst, samples))
            if t > 0:
                kernel.append(t / (samples * m) / draw)
                print(f"kernel {label:28s} {kernel[-1]:5.1f} draws per (sample, edge)")
            else:
                print(f"kernel {label:28s} below draw noise")
    print(f"cover per realized edge: median {statistics.median(cover):.0f}, "
          f"range {min(cover):.0f}-{max(cover):.0f}")
    if kernel:
        print(f"kernel per (sample, edge): median {statistics.median(kernel):.1f}, "
              f"range {min(kernel):.1f}-{max(kernel):.1f}")


if __name__ == "__main__":
    main()
