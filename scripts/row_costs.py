#!/usr/bin/env python3
"""Cost of `sampling.row_map` rows in edge draws, the unit of the split
rule, and of a cover block on each path of `matching.cover_solver`.

Times, best of five each, the Monte Carlo value rows of the two ``mc``
benchmark instances, the mass-certificate rows (cover plus scheme
masses) and the kernel-MC rows of a few instances, and the draw itself
on Karp-Sipser n=200 c=1 (2,000 samples) before and after each case, so
the ratio does not follow the machine's speed drifting between cases.
Prints the draw rate in hashes per second first.  Monte Carlo cases
have their own draws taken out, exact cases the split rule's m draws a
row.  Prints per case the value or cover cost per realized edge, and per
instance the kernel cost per (sample, edge) beyond its draw, then the
medians, which ``sampling.SPLIT_MIN_WORK``'s comment records: the
cover's apart for the cases whose blocks hold at least
``matching.LOCKSTEP_MIN_ROWS`` rows, which take the lockstep, and the
others (the rule of `estimate._scheme_mass_sum`).

Then, per instance and block size from 8 to 512 rows, the cost of the
lockstep over that of solving one by one, on the instance's own blocks:
its realization blocks, or its support-mask chunks from the middle of
the support on (the first chunks hold only the low edges), each cut
into blocks of that many nonempty rows, ROWS rows in all (two blocks at
the largest size), and solved on each path, the two timed alternately,
best of seven each.  A size that
none of an instance's blocks reaches prints "-": its covers never meet
that choice.  ``matching.LOCKSTEP_MIN_ROWS`` is the least size whose
ratio is below 1 on every instance that reaches it.  It moves with
timing noise from run to run, so take the largest of a few runs.  Run
it on one CPU, so no map is split:

    PYTHONPATH=src taskset -c 0 python scripts/row_costs.py
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from matchgap import estimate, matching
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser, gen_pendant_star,
                              gen_random_point)
from matchgap.sampling import (block_rows, dense_block, realization_blocks, sample_values,
                               support_probabilities)

ROWS = 1024  # nonempty rows of an instance timed at every block size
BLOCKS = (8, 16, 32, 64, 128, 256, 384, 512)

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
    print(f"draw: {1 / draw_seconds():.3g} hashes/s (karp_sipser n=200, 2,000 samples)")
    for label, inst, samples in VALUE_CASES:
        before = draw_seconds()
        solve = matching.value_solver(inst)
        t = best(lambda: sample_values(inst, solve, 1, 0, samples)) - drawn(inst, samples)
        draw = (before + draw_seconds()) / 2
        print(f"value  {label:28s} {t / samples * 1e6:7.1f} us/row  "
              f"{t / samples / draw / float(inst.x.sum()):6.0f} draws per realized edge")
    cover, kernel = {True: [], False: []}, []  # cover costs by lockstep expected
    for label, inst, samples in CASES:
        m, x = inst.num_edges, inst.x
        schemes = ("weighted", "unweighted") if inst.is_unweighted else ("weighted",)
        for scheme in schemes:
            before = draw_seconds()
            if samples is None:  # the split rule's m draws a row stand for its mask
                rows, own = np.count_nonzero(support_probabilities(inst)), m
                realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0) & (x < 1))
                lockstep = min(rows, estimate._MASK_CHUNK) >= matching.LOCKSTEP_MIN_ROWS
                t = best(lambda: estimate.per_edge_masses_exact(inst, scheme))
            else:
                rows, own, realized = samples, 0, float(x.sum())
                lockstep = block_rows(inst, samples) >= matching.LOCKSTEP_MIN_ROWS
                t = best(lambda: estimate.per_edge_certificates(
                    inst, "mc", scheme, "mass", samples=samples, seed=0))
                t -= drawn(inst, samples)
            draw = (before + draw_seconds()) / 2
            per_edge = (t / rows / draw - own) / realized
            cover[lockstep].append(per_edge)
            print(f"cover  {label:28s} {scheme:10s} {t / rows * 1e6:7.1f} us/row  "
                  f"{per_edge:6.0f} draws per realized edge"
                  f"{'  (lockstep)' if lockstep else ''}")
        if samples is not None:
            draw = draw_seconds()
            t = best(lambda: estimate._kernel_means_mc(inst, samples, 0)) - drawn(inst, samples)
            kernel.append(t / (samples * m) / draw)
            print(f"kernel {label:28s} {kernel[-1]:5.1f} draws per (sample, edge)")
    for lockstep, costs in cover.items():
        print(f"cover per realized edge, {'lockstep' if lockstep else 'one by one'}: median "
              f"{statistics.median(costs):.0f}, range {min(costs):.0f}-{max(costs):.0f}")
    print(f"kernel per (sample, edge): median {statistics.median(kernel):.1f}, "
          f"range {min(kernel):.1f}-{max(kernel):.1f}")
    paths()


def own_blocks(inst, samples, size: int) -> list:
    """Blocks (flat, rows) of `size` nonempty rows, ROWS rows in all or
    fewer, cut from the blocks that the mass certificate of `inst` hands
    `cover_solver`: its support-mask chunks from the middle of the
    support on when `samples` is None, else its realization blocks of
    `samples` samples."""
    m = inst.num_edges
    if samples is None:
        masks = np.flatnonzero(support_probabilities(inst))
        masks = masks[len(masks) // 2:]
        chunk, bits = estimate._MASK_CHUNK, 1 << np.arange(m)
        blocks = ((masks[k:k + chunk, None] & bits) != 0 for k in range(0, len(masks), chunk))
    else:
        blocks = (dense_block(flat, rows, m)
                  for flat, rows in realization_blocks(inst, 0, 0, samples))
    out = []
    for block in blocks:
        rows = block[block.any(axis=1)]
        out += [(np.flatnonzero(rows[k:k + size]), size)
                for k in range(0, len(rows) - size + 1, size)]
        if len(out) * size >= ROWS:
            break
    return out[:ROWS // size]


def path_costs(inst, blocks: list, tries: int = 7) -> tuple[float, float]:
    """Seconds of `cover_solver` on `blocks`, every block on the lockstep
    path and every row one by one, best of `tries` each, the two timed
    alternately so that both see the same drift."""
    saved = matching.LOCKSTEP_MIN_ROWS
    times = ([], [])
    try:
        for _ in range(tries):
            for min_rows, out in zip((1, blocks[0][1] + 1), times):
                matching.LOCKSTEP_MIN_ROWS = min_rows
                cover = matching.cover_solver(inst)
                start = time.perf_counter()
                for flat, rows in blocks:
                    cover(flat, rows)
                out.append(time.perf_counter() - start)
    finally:
        matching.LOCKSTEP_MIN_ROWS = saved
    return min(times[0]), min(times[1])


def paths() -> None:
    print("lockstep / one-by-one cost by block size (rows): "
          + " ".join(f"{size:5d}" for size in BLOCKS))
    below = {size: [] for size in BLOCKS}  # per size, ratio below 1 per instance
    for label, inst, samples in CASES:
        cells, realized = [], []
        for size in BLOCKS:
            blocks = own_blocks(inst, samples, size)
            if not blocks:
                cells.append("    -")
                continue
            lock, alone = path_costs(inst, blocks)
            below[size].append(lock < alone)
            cells.append(f"{lock / alone:5.2f}")
            realized += [len(flat) / rows for flat, rows in blocks]
        print(f"blocks {label:28s} {np.mean(realized):5.1f} edges a row  " + " ".join(cells))
    least = [size for size in BLOCKS if below[size] and all(below[size])]
    print(f"least block (LOCKSTEP_MIN_ROWS): {least[0] if least else 'none'}")


if __name__ == "__main__":
    main()
