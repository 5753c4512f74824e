#!/usr/bin/env python3
"""Benchmark the search kernels: numba-jitted against the pure-python path.

The parent process runs every workload in fresh subprocesses, with the
default kernels and with TRD_PURE_PYTHON=1, for three rounds; the two
children swap order from round to round, and the table gives each row's
median time. Each row names the kernel path every run took and the
containers it ran on (numpy arrays when jitted, Python lists otherwise).
Where numba is not installed both runs take the pure path, and the table
says so in place of a speedup. Each search row also gives the B&B node
total and nodes per second: every node the min-weight kernel visits in the
solve, lex probes included, and that total over the solve's time. JIT
compilation happens on a warmup call, so the timed section measures
steady-state search speed only.

Usage:
    python benchmarks/bench_kernels.py            # quick set
    python benchmarks/bench_kernels.py --full     # adds the larger searches, up to C5 x C6
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROUNDS = 3


def _workloads(full: bool):
    from trdprod.families import complete, cycle, path, prism, wheel
    from trdprod.graph import direct_product

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


def _run_child(full: bool) -> None:
    from trdprod import _kernels
    from trdprod.families import path
    from trdprod.solve import gamma_tr_bruteforce, gamma_tr_exact

    gamma_tr_bruteforce(path(4))  # warmup triggers compilation on the jitted path
    gamma_tr_exact(path(4), budget=60)
    nodes = [0]
    kernel = _kernels.bnb_min_weight

    def counting(*args):
        before = int(args[11][4])  # slot 4 of the state counts the nodes done
        status = kernel(*args)
        nodes[0] += int(args[11][4]) - before
        return status

    _kernels.bnb_min_weight = counting
    results = []
    for label, kind, g in _workloads(full):
        nodes[0] = 0
        start = time.perf_counter()
        if kind == "brute":
            value = gamma_tr_bruteforce(g).value
        else:
            value = gamma_tr_exact(g, budget=600).value
        elapsed = time.perf_counter() - start
        results.append({"label": label, "value": value, "seconds": elapsed,
                        "nodes": nodes[0]})
    print(json.dumps({"jitted": _kernels.USE_NUMBA, "containers": _kernels.CONTAINERS,
                      "results": results}))


def _rate(row) -> str:
    # a stronger bound makes each node dearer, so the rate alone can fall
    # while the search gets faster; the node total shows which happened
    return f"{row['nodes']:,} nodes, {row['nodes'] / row['seconds']:,.0f}/s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the larger searches")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _run_child(args.full)
        return 0

    # The children alternate in order from round to round, so that a drift
    # in host speed over the session does not favour the one run first.
    rounds = {"numba": [], "pure": []}
    for i in range(ROUNDS):
        modes = ("numba", "pure") if i % 2 == 0 else ("pure", "numba")
        for mode in modes:
            env = dict(os.environ, TRD_PURE_PYTHON="0" if mode == "numba" else "1")
            cmd = [sys.executable, os.path.abspath(__file__), "--child"]
            if args.full:
                cmd.append("--full")
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            rounds[mode].append(json.loads(out.stdout.strip().splitlines()[-1]))
    runs = {}
    for mode, taken in rounds.items():
        run = runs[mode] = taken[0]
        print(f"{mode}: jitted={run['jitted']} containers={run['containers']}")
        for j, row in enumerate(run["results"]):
            same = [r["results"][j] for r in taken]
            assert len({(r["value"], r["nodes"]) for r in same}) == 1, "rounds disagree"
            row["seconds"] = statistics.median(r["seconds"] for r in same)

    def path(run):
        return f"{'numba' if run['jitted'] else 'pure'}, {run['containers']}"

    print(f"\nmedian of {ROUNDS} rounds, children alternating in order")
    print(f"{'workload':<28} {'default run':>32} {'TRD_PURE_PYTHON=1 run':>32}  speedup")
    for jr, pr in zip(runs["numba"]["results"], runs["pure"]["results"]):
        assert jr["value"] == pr["value"], "paths disagree on the optimum"
        if not runs["numba"]["jitted"]:
            speed = "numba not installed"
        elif jr["seconds"] > 0:
            speed = f"{pr['seconds'] / jr['seconds']:.1f}x"
        else:
            speed = "inf"
        default = f"{jr['seconds']:.3f} s ({path(runs['numba'])})"
        pure = f"{pr['seconds']:.3f} s ({path(runs['pure'])})"
        print(f"{jr['label']:<28} {default:>32} {pure:>32}  {speed}")
        if pr["nodes"]:
            print(f"{'':<28} {_rate(jr):>32} {_rate(pr):>32}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
