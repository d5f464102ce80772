"""Median wall times of the library ops on generated matrices, and their
growth per doubling of the point count.

``measure`` runs the ops and returns the report that ``robinspace bench
-f json`` prints, headed by the host it ran on (CPU count and Python
version), since figures from different hosts do not compare; ``text``
lays the same report out as a table.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
import timeit
from functools import partial
from typing import Any, Callable

from . import copoints, core, dendrogram as dg, mmodtree as mm, pqtree as pq, translate
from .core import DissimilarityMatrix
from .generator import generate_matrix

# op name -> prepare(matrix, done): the call to time, given the outputs of
# the ops before it in ``done``; what ``prepare`` itself does is not timed
BENCH_OPS: dict[str, Callable[[DissimilarityMatrix, dict], Callable[[], Any]]] = {
    "dendrogram": lambda m, done: partial(dg.build_dendrogram, m, range(m.n)),
    "mmodule-tree": lambda m, done: partial(mm.mmodule_tree, m, range(m.n)),
    "pq-tree": lambda m, done: partial(copoints.pq_tree2, m, range(m.n)),
    "pq-to-mmodule": lambda m, done: partial(translate.pq_to_mmodule_tree, m, done["pq-tree"]),
    "mmodule-to-pq": lambda m, done: partial(translate.mmodule_to_pq_tree, m, done["mmodule-tree"]),
    "verify": lambda m, done: partial(core.violating_triple, m, pq.canonical_order(done["pq-tree"])),
}


def measure(sizes: list[int], reps: int, seed: int, profile: str) -> dict:
    """The report: the host, per size the median of each op's best of five
    calls, the ratio of the medians of each doubling in ``sizes``, and the
    median time of one ``generate_matrix`` call."""
    # reps are interleaved across sizes so load drift on the host cannot
    # land on one size coherently and distort the growth ratios
    samples: dict[int, dict[str, list[float]]] = {
        size: {op: [] for op in BENCH_OPS} for size in sizes
    }
    generate_samples: dict[int, list[float]] = {size: [] for size in sizes}
    for rep in range(reps):
        for size in sizes:
            t0 = time.perf_counter()
            matrix = generate_matrix(size, seed + rep, profile)
            generate_samples[size].append(time.perf_counter() - t0)
            done: dict[str, Any] = {}
            for op, prepare in BENCH_OPS.items():
                # one untimed call warms the caches and feeds the later ops; then
                # ``timeit`` times five one-shot calls with the cyclic collector paused
                call = prepare(matrix, done)
                done[op] = call()
                samples[size][op].append(min(timeit.repeat(call, repeat=5, number=1)))
    medians: dict[str, dict[str, float]] = {}
    generate_s: dict[str, float] = {}  # one call per rep, not an op's best of five
    if reps:
        for size in sizes:
            medians[str(size)] = {
                op: statistics.median(samples[size][op]) for op in BENCH_OPS
            }
            generate_s[str(size)] = statistics.median(generate_samples[size])
    ratios: dict[str, dict[str, float]] = {}
    for a, b in zip(sizes, sizes[1:]):
        if b == 2 * a and str(a) in medians:
            key = f"{b}/{a}"
            ratios[key] = {
                op: medians[str(b)][op] / max(medians[str(a)][op], 1e-9)
                for op in BENCH_OPS
            }
    return {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "profile": profile,
        "sizes": sizes,
        "reps": reps,
        "medians": medians,
        "ratios": ratios,
        "generate_s": generate_s,
    }


def text(report: dict) -> str:
    """``report`` as its host on one line, then a table of medians, one
    line per op, then the ratios and the generator's times."""
    sizes, medians, generate_s = report["sizes"], report["medians"], report["generate_s"]
    host = report["host"]
    lines = [f"host: {host['cpus']} CPUs, Python {host['python']}"]
    if not medians:
        return "\n".join([*lines, "no repetitions requested"])
    width = max(len(op) for op in BENCH_OPS)
    lines.append("op".ljust(width) + "".join(f"  n={s:<8}" for s in sizes))
    for op in BENCH_OPS:
        cells = "".join(f"  {medians[str(s)][op]:<10.4f}" for s in sizes)
        lines.append(op.ljust(width) + cells)
    for key, by_op in report["ratios"].items():
        line = ", ".join(f"{op} {by_op[op]:.2f}" for op in BENCH_OPS)
        lines.append(f"ratio {key}: {line}")
    line = ", ".join(f"n={s} {generate_s[str(s)]:.4f}" for s in sizes)
    lines.append(f"generate (median of one call per rep): {line}")
    return "\n".join(lines)
