#!/usr/bin/env python3
"""Cost of `sampling.row_map` rows in edge draws, the unit of the split
rule, and of a cover row on each path of `matching.cover_solver`.

Times, best of five each, the mass-certificate rows (cover plus scheme
masses) and the kernel-MC rows of a few instances, and the draw itself
on Karp-Sipser n=200 c=1 (2,000 samples) before and after each case, so
the ratio does not follow the machine's speed drifting between cases.
Monte Carlo cases have their own draws taken out, exact cases the
split rule's m draws a row.  Prints per case the cover cost per
realized edge, and per instance the kernel cost per (sample, edge)
beyond its draw, then the medians, which ``sampling.SPLIT_MIN_WORK``'s
comment records: the cover's apart for the cases whose rows are expected
to take the lockstep (``matching.covers_in_lockstep``) and the others.

Then, per instance and realized-edge count, the cover cost per row of
each path, the two timed alternately, best of seven each: up to 256
rows of that count (masks for the exact case, samples otherwise) solved
as one block by `_lockstep` and one by one by `_primal_dual`.
``matching.LOCKSTEP_MAX_EDGES`` is the largest count measured on a full
256-row block such that, on every full block of at most that count, the
lockstep is the cheaper path.  Last, at counts up to that crossover,
the ratio of the two paths' costs on blocks of 8 to 256 such rows: the
least block whose ratio is below 1 at every count is
``LOCKSTEP_MIN_ROWS``.  Both move with timing noise from run to run, so
take the least crossover and the largest block of a few runs.  Run it
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
from matchgap.sampling import block_rows, realization_blocks, support_probabilities

COUNTS = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64)  # realized edges a row
ROWS = 256     # rows of one count solved as one block
SAMPLES = 20000  # samples searched for rows of each count
BLOCKS = (8, 16, 32, 64, 128, 256)

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
    cover, kernel = {True: [], False: []}, []  # cover costs by lockstep expected
    for label, inst, samples in CASES:
        m, x = inst.num_edges, inst.x
        schemes = ("weighted", "unweighted") if inst.is_unweighted else ("weighted",)
        for scheme in schemes:
            before = draw_seconds()
            if samples is None:  # the split rule's m draws a row stand for its mask
                rows, own = np.count_nonzero(support_probabilities(inst)), m
                realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0) & (x < 1))
                lockstep = matching.covers_in_lockstep(realized, min(rows, estimate._MASK_CHUNK))
                t = best(lambda: estimate.per_edge_masses_exact(inst, scheme))
            else:
                rows, own, realized = samples, 0, float(x.sum())
                lockstep = matching.covers_in_lockstep(realized, block_rows(inst, samples))
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


def rows_by_count(inst, samples) -> dict:
    """Up to ROWS rows of each count in COUNTS: support masks of nonzero
    probability when `samples` is None, else the first SAMPLES samples."""
    if samples is None:
        masks = np.flatnonzero(support_probabilities(inst))
        blocks = [(masks[:, None] & (1 << np.arange(inst.num_edges))) != 0]
    else:
        blocks = realization_blocks(inst, 0, 0, SAMPLES)
    found = {c: [] for c in COUNTS}
    for block in blocks:
        count = np.count_nonzero(block, axis=1)
        for c in COUNTS:
            want = ROWS - sum(map(len, found[c]))
            if want > 0:
                found[c].append(block[count == c][:want].copy())
    return {c: np.concatenate(rows) for c, rows in found.items()
            if sum(map(len, rows)) >= max(BLOCKS[0], 16)}


def path_costs(inst, rows, tries: int = 7) -> tuple[float, float]:
    """Seconds per row of `cover_solver` on the block `rows`, all of it on
    the lockstep path and all one by one, best of `tries` each, the two
    timed alternately so that both see the same drift."""
    saved = matching.LOCKSTEP_MAX_EDGES, matching.LOCKSTEP_MIN_ROWS
    times = ([], [])
    try:
        for _ in range(tries):
            for limits, out in zip(((inst.num_edges, 1), (-1, 1)), times):
                matching.LOCKSTEP_MAX_EDGES, matching.LOCKSTEP_MIN_ROWS = limits
                cover = matching.cover_solver(inst)
                start = time.perf_counter()
                cover(rows)
                out.append(time.perf_counter() - start)
    finally:
        matching.LOCKSTEP_MAX_EDGES, matching.LOCKSTEP_MIN_ROWS = saved
    return min(times[0]) / len(rows), min(times[1]) / len(rows)


def paths() -> None:
    print("cover per row by realized edges (us): count rows lockstep per-row")
    table, full = {}, []  # full: (count, lockstep cheaper) per full block
    for label, inst, samples in CASES:
        table[label] = rows_by_count(inst, samples)
        for c, rows in table[label].items():
            lock, alone = path_costs(inst, rows)
            print(f"paths  {label:28s} {c:3d} {len(rows):4d} {lock * 1e6:8.1f} {alone * 1e6:8.1f}")
            if len(rows) == ROWS:
                full.append((c, lock < alone))
    crossover = max([0, *(c for c, _ in full if all(ok for k, ok in full if k <= c))])
    print(f"crossover (LOCKSTEP_MAX_EDGES): {crossover}")
    print("lockstep / per-row cost by block size, counts up to the crossover:")
    least = BLOCKS[0]
    for label, inst, _ in CASES:
        for c, rows in table[label].items():
            if c > crossover or len(rows) < ROWS:
                continue
            ratios = [lock / alone for lock, alone in (path_costs(inst, rows[:size])
                                                      for size in BLOCKS)]
            print(f"blocks {label:28s} {c:3d} " + " ".join(f"{r:5.2f}" for r in ratios))
            cheaper = [size for size, r in zip(BLOCKS, ratios) if r < 1.0]
            least = max(least, cheaper[0] if cheaper else BLOCKS[-1])
    print(f"least block (LOCKSTEP_MIN_ROWS): {least}")


if __name__ == "__main__":
    main()
