#!/usr/bin/env python3
"""Survey the structural variety each generator profile actually produces.

For a batch of instances per profile this reports how rich the order sets
are (median count of compatible orders, share of flat instances with exactly
two), the node mix of the mmodule tree, and the dendrogram height.  Useful
as a smoke check that the profiles exercise genuinely different regimes.

    python scripts/profile_survey.py -n 30 --batch 200
"""

from __future__ import annotations

import argparse
import statistics
from dataclasses import dataclass

from robinspace import copoints, core, dendrogram, generator, mmodtree, pqtree, translate


@dataclass
class SurveyConfig:
    n: int = 30
    batch: int = 200
    seed: int = 0
    order_cap: int = 10**9


def dendro_height(tree) -> int:
    return core.fold(tree, lambda _node, heights: 1 + max(heights, default=-1))


def survey(config: SurveyConfig, profile: str) -> dict[str, float]:
    order_counts: list[int] = []
    flat = 0
    cups = caps = specials = 0
    heights: list[int] = []
    for i in range(config.batch):
        matrix = generator.generate_matrix(config.n, config.seed + i, profile)
        t_pq = copoints.pq_tree2(matrix, range(config.n))
        count = min(pqtree.count_orders(t_pq), config.order_cap)
        order_counts.append(count)
        flat += count == 2
        t_mm = translate.pq_to_mmodule_tree(matrix, t_pq)
        for node in core.iter_nodes(t_mm):
            if isinstance(node, mmodtree.Cup):
                cups += 1
            elif isinstance(node, mmodtree.Cap):
                caps += 1
                specials += node.special is not None
        heights.append(dendro_height(dendrogram.build_dendrogram(matrix, range(config.n))))
    return {
        "orders_median": statistics.median(order_counts),
        "orders_max": max(order_counts),
        "flat_share": flat / config.batch,
        "cups_per_instance": cups / config.batch,
        "caps_per_instance": caps / config.batch,
        "special_share": specials / max(caps, 1),
        "height_median": statistics.median(heights),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=30, help="points per instance")
    parser.add_argument("--batch", type=int, default=200, help="instances per profile")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = SurveyConfig(n=args.n, batch=args.batch, seed=args.seed)

    fields = [
        "orders_median", "orders_max", "flat_share",
        "cups_per_instance", "caps_per_instance", "special_share", "height_median",
    ]
    print(f"n={config.n} batch={config.batch} seed={config.seed}")
    print(f"{'profile':>12}" + "".join(f"{f:>20}" for f in fields))
    for profile in generator.PROFILES:
        stats = survey(config, profile)
        row = "".join(
            f"{stats[f]:>20.3g}" if isinstance(stats[f], float) else f"{stats[f]:>20}"
            for f in fields
        )
        print(f"{profile:>12}" + row)


if __name__ == "__main__":
    main()
