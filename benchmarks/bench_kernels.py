#!/usr/bin/env python3
"""Benchmark the search kernels on fixed exact solves.

Every workload runs three times, and the table gives each row's median
time; the rounds must agree on the value and on the node total. Each
search row also gives the B&B node total and nodes per second: every node
the min-weight kernel visits in the solve, lex probes included, and that
total over the solve's time.

Usage:
    python benchmarks/bench_kernels.py            # quick set
    python benchmarks/bench_kernels.py --full     # adds the larger searches, up to C5 x C6
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from trdprod import _kernels
from trdprod.families import complete, cycle, path, prism, wheel
from trdprod.graph import direct_product
from trdprod.solve import gamma_tr_bruteforce, gamma_tr_exact

ROUNDS = 3


def _workloads(full: bool):
    loads = [
        ("scan 3^10 (K2 x C5)", "brute", direct_product(complete(2), cycle(5)).base),
        ("search 16v (C4 x C4)", "bnb", direct_product(cycle(4), cycle(4)).base),
        ("search 20v (C5 x C4)", "bnb", direct_product(cycle(5), cycle(4)).base),
    ]
    if full:
        loads += [
            ("scan 3^12 (C4 x P3)", "brute", direct_product(cycle(4), path(3)).base),
            ("search 18v (K3 x W6)", "bnb", direct_product(complete(3), wheel(6)).base),
            ("search 24v (C4 x prism C3)", "bnb",
             direct_product(cycle(4), prism(cycle(3))).base),
            ("search 25v (C5 x C5)", "bnb", direct_product(cycle(5), cycle(5)).base),
            ("search 28v (K4 x C7)", "bnb", direct_product(complete(4), cycle(7)).base),
            ("search 30v (C5 x C6)", "bnb", direct_product(cycle(5), cycle(6)).base),
        ]
    return loads


def _round(loads, nodes):
    results = []
    for label, kind, g in loads:
        nodes[0] = 0
        start = time.perf_counter()
        if kind == "brute":
            value = gamma_tr_bruteforce(g).value
        else:
            value = gamma_tr_exact(g, budget=600).value
        elapsed = time.perf_counter() - start
        results.append({"label": label, "value": value, "seconds": elapsed,
                        "nodes": nodes[0]})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the larger searches")
    args = parser.parse_args()

    nodes = [0]
    kernel = _kernels.bnb_min_weight

    def counting(*call):
        before = call[11][4]  # slot 4 of the state counts the nodes done
        status = kernel(*call)
        nodes[0] += call[11][4] - before
        return status

    _kernels.bnb_min_weight = counting
    loads = _workloads(args.full)
    rounds = [_round(loads, nodes) for _ in range(ROUNDS)]

    print(f"median of {ROUNDS} rounds")
    print(f"{'workload':<28} {'time':>10}  B&B nodes")
    for same in zip(*rounds):
        assert len({(r["value"], r["nodes"]) for r in same}) == 1, "rounds disagree"
        row = same[0]
        seconds = statistics.median(r["seconds"] for r in same)
        # a stronger bound makes each node dearer, so the rate alone can fall
        # while the search gets faster; the node total shows which happened
        rate = f"{row['nodes']:,} nodes, {row['nodes'] / seconds:,.0f}/s" if row["nodes"] else ""
        print(f"{row['label']:<28} {seconds:>8.3f} s  {rate}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
