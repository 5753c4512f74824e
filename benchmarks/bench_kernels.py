#!/usr/bin/env python3
"""Benchmark the search kernels on fixed exact solves.

Every workload runs ROUNDS times, and the rounds must agree on the value
and on the node total. A search or scan row gives the median time of its
rounds. Each search row also gives the B&B node total and nodes per
second: every node the B&B kernel visits in the solve, under either name
(the proof runs as bnb_min_weight, the lex probes as bnb_max_twos), and
that total over the solve's time. The fixed-cost row repeats a small
solve: SMALL_SOLVES exact and SMALL_SOLVES max-2s solves of K2,3 x K2,3,
whose proof visits 3 nodes, so the row times the seed, the set-up and the
lex walk rather than search. Each solve is timed on its own, a round's
figure is the median of its solves, and the row gives the least of these
over the rounds, per solve, so that a slow spell of a shared host moves
it little. Its value is the sum over the solves, and it gives the node
total without a rate. The max-2s row (--full) times gamma_tr_max_v2, the
proof, the max-2s pass and its lex rebuild, where the other search rows
time gamma_tr_exact.

The last line of the output is one JSON object: every row's label, kind,
value, seconds (the figure the row prints) and B&B node total, with the
Python version and the host it ran on. Save that line as BENCH_<n>.json
to keep a run's figures.

Usage:
    python benchmarks/bench_kernels.py            # quick set
    python benchmarks/bench_kernels.py --full     # adds the larger searches, up to C5 x C6
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from trdprod import _kernels
from trdprod.families import complete, complete_bipartite, cycle, path, wheel
from trdprod.graph import direct_product
from trdprod.solve import gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2

ROUNDS = 7
SMALL_SOLVES = 200


def _workloads(full: bool):
    loads = [
        ("scan 3^10 (K2 x C5)", "brute", direct_product(complete(2), cycle(5)).base),
        ("search 18v (K3 x W6)", "bnb", direct_product(complete(3), wheel(6)).base),
        ("search 20v (C5 x C4)", "bnb", direct_product(cycle(5), cycle(4)).base),
        (f"{2 * SMALL_SOLVES} solves 25v (K2,3xK2,3)", "small",
         direct_product(complete_bipartite(2, 3), complete_bipartite(2, 3)).base),
    ]
    if full:
        loads += [
            ("scan 3^12 (C4 x P3)", "brute", direct_product(cycle(4), path(3)).base),
            ("search 21v (K3 x C7)", "bnb", direct_product(complete(3), cycle(7)).base),
            ("search 25v (C5 x C5)", "bnb", direct_product(cycle(5), cycle(5)).base),
            ("search 28v (K4 x C7)", "bnb", direct_product(complete(4), cycle(7)).base),
            ("search 30v (C5 x C6)", "bnb", direct_product(cycle(5), cycle(6)).base),
            ("max-2s 24v (K4 x C6)", "max2", direct_product(complete(4), cycle(6)).base),
        ]
    return loads


def _round(loads, nodes):
    results = []
    for label, kind, g in loads:
        nodes[0] = 0
        if kind == "small":
            value, times = 0, []
            for solver in (gamma_tr_exact, gamma_tr_max_v2):
                for _ in range(SMALL_SOLVES):
                    start = time.perf_counter()
                    value += solver(g, budget=600).value
                    times.append(time.perf_counter() - start)
            elapsed = statistics.median(times)
        else:
            start = time.perf_counter()
            if kind == "brute":
                value = gamma_tr_bruteforce(g).value
            else:
                solver = gamma_tr_max_v2 if kind == "max2" else gamma_tr_exact
                value = solver(g, budget=600).value
            elapsed = time.perf_counter() - start
        results.append({"label": label, "kind": kind, "value": value, "seconds": elapsed,
                        "nodes": nodes[0]})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the larger searches")
    args = parser.parse_args()

    nodes = [0]
    for name in ("bnb_min_weight", "bnb_max_twos"):
        def counting(*call, kernel=getattr(_kernels, name)):
            before = call[11][4]  # slot 4 of the state counts the nodes done
            status = kernel(*call)
            nodes[0] += call[11][4] - before
            return status

        setattr(_kernels, name, counting)
    loads = _workloads(args.full)
    rounds = [_round(loads, nodes) for _ in range(ROUNDS)]

    print(f"median of {ROUNDS} rounds; the fixed-cost row: the least round median of a solve")
    print(f"{'workload':<28} {'time':>10}  B&B nodes")
    rows = []
    for same in zip(*rounds):
        assert len({(r["value"], r["nodes"]) for r in same}) == 1, "rounds disagree"
        row = same[0]
        # a stronger bound makes each node dearer, so the rate alone can fall
        # while the search gets faster; the node total shows which happened
        # a solve whose seed is already its answer searches no node; the
        # fixed-cost row's time is not search, so it gets no rate
        rate = "" if row["kind"] == "brute" else f"{row['nodes']:,} nodes"
        if row["kind"] == "small":
            seconds = min(r["seconds"] for r in same)
            print(f"{row['label']:<28} {seconds * 1e6:>7.1f} us  {rate}, per solve")
        else:
            seconds = statistics.median(r["seconds"] for r in same)
            if row["kind"] != "brute" and row["nodes"]:
                rate += f", {row['nodes'] / seconds:,.0f}/s"
            print(f"{row['label']:<28} {seconds:>8.3f} s  {rate}".rstrip())
        rows.append(dict(row, seconds=seconds))
    print(json.dumps({"python": platform.python_version(), "host": _host(), "rounds": ROUNDS,
                      "rows": rows}))
    return 0


def _host() -> dict:
    """The machine a run measured: platform, CPU model and logical CPU count."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()}


if __name__ == "__main__":
    sys.exit(main())
