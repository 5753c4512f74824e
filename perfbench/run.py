#!/usr/bin/env python3
"""trdprod benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; trdprod is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Each run
repeats whole passes over the workload's operations until ``--seconds`` have
passed, then checks every operation against the reference in reference.py.
End-to-end times are reference seconds (see hostspeed.py); the raw ones are
printed above the result line and kept in the run record. Per-run records
and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # the benchmark writes only under perfbench/out/
import hostspeed  # noqa: E402

_clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB", "bound_ratio": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (one set-up sample)")
    return p.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, reference) seconds from process start to ready, on fresh interpreters in turn.

    Each child probes the host speed right after it is ready.
    """
    cmd = [sys.executable, "-B", os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = _clock()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            took = _clock() - t0
            rest = child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up child failed: {line!r}")
        samples.append((took, took * hostspeed.scale(float(rest))))
    return samples


def _environment() -> dict:
    import numpy
    import scipy
    from trdprod import _kernels

    return {"use_numba": bool(_kernels.USE_NUMBA),
            "TRD_PURE_PYTHON": os.environ.get("TRD_PURE_PYTHON"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "trdprod", "__init__.py")):
        print(f"trdprod sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        print(hostspeed.probe_burst())
        return 0

    setup_samples = _setup_seconds(args.workload, args.seed)
    wl.setup()

    tracer = None
    if args.trace:
        import trdprod
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(trdprod)
    passes = []
    t_start = _clock()
    try:
        with hostspeed.Sampler() as sampler:
            while not passes or _clock() - t_start < args.seconds:
                passes.extend(wl.run_pass(tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe_s = sampler.mean() or hostspeed.probe_burst()
    for p in passes:
        p["scale"] = hostspeed.scale(sampler.mean(p["start"], p["start"] + p["wall"]) or probe_s)
        for op in p["ops"]:
            op["scale"] = sampler.scale_near(op["start"], op["t"], p["scale"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems, per_op = wl.check(passes)
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for why in per_op if why)
    if len(per_op) != len(ops):
        problems.append(f"{len(per_op)} checks for {len(ops)} operations")
    for op, why in zip(ops, per_op):
        op["failed"] = why
    raw = {"setup_s": statistics.median(s for s, _ in setup_samples),
           "wall_s": statistics.median(p["wall"] for p in passes),
           "op_p50_s": _median_of_medians((op["op"], op["t"]) for op in ops),
           "probe_s": probe_s}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(r for _, r in setup_samples),
            "wall_s": statistics.median(p["wall"] * p["scale"] for p in passes),
            "op_p50_s": _median_of_medians((op["op"], op["t"] * op["scale"]) for op in ops),
            "peak_rss_mb": peak_rss_mb,
            "bound_ratio": statistics.fmean(workloads.bound_ratio(op) for op in ops),
        }
        units = END_TO_END_UNITS
    else:
        metrics = tracer.metrics(len(passes))
        timeouts = [op for op in ops if op.get("timeout")]
        metrics["solve.timeout.overshoot_s"] = sum(
            op["t"] - op["budget"] for op in timeouts) / len(passes)
        metrics["solve.timeout.nodes"] = sum(op["nodes"] for op in timeouts) / len(passes)
        metrics["solve.timeout.gap"] = sum(
            hi - lo for lo, hi in map(workloads.timeout_bounds, timeouts)) / len(passes)
        metrics["host.probe_s"] = probe_s
        units = {k: _layer_unit(k) for k in metrics}

    env = _environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_samples_s": setup_samples,
              "passes": len(passes), "problems": problems, "metrics": metrics, "raw": raw,
              "operations": [{k: v for k, v in op.items() if k in ("op", "t", "failed")}
                             for op in ops]}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{tag}.json"))

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(passes)} pass(es), {len(ops)} operations,"
          f" {failed} failed")
    for why in sorted({w for op in ops for w in op["failed"]}):
        print(f"  failed: {why}")
    for p in problems:
        print(f"  problem: {p}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print("  raw: " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _median_of_medians(samples) -> float:
    """Median over distinct operations of each one's median time.

    Each distinct operation counts once however often it repeats, and a
    workload whose operations fall into a cheap and a costly half still has
    a median that is one operation's steady figure, or the mean of two.
    """
    by_op: dict[str, list[float]] = {}
    for name, t in samples:
        by_op.setdefault(name, []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_op.values())


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
