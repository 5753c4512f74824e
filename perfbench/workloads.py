"""The three workloads: what each sets up, times and checks.

Each workload has ``setup`` (inputs plus a warm-up solve, the part counted
in ``setup_s``), ``run_pass`` (one timed pass returning its operations) and
``check`` (reference checks on those operations, run after timing). An
operation record carries its time and the outputs the checks need; a check
returns the reasons an operation failed, empty when it passed.

Only trdprod is imported at module level; the reference checker (networkx
and scipy) is imported inside ``check`` so it stays out of set-up and timed
regions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import trdprod
from trdprod import bounds, cli, solve
from trdprod.errors import SolverTimeout, TrdError
from trdprod.graph import direct_product, from_edge_list

_clock = time.perf_counter

# gammatr's default budget; the solve products prove well inside it.
SOLVE_BUDGET_S = 60.0
# The deadline operation: a budget far below the C5 x C5 proof (about 8.3M
# nodes), and the stated overshoot a budget may take before the answer counts
# as late.
DEADLINE_BUDGET_S = 1.0
DEADLINE_ALLOWANCE_S = 0.25


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(p, q):
    return p + q, [(i, p + j) for i in range(p) for j in range(q)]


def hub_plus(rim):
    """Vertex 0 joined to every vertex of the rim graph (wheel from a cycle, fan from a path)."""
    n, edges = rim
    return n + 1, [(0, v + 1) for v in range(n)] + [(u + 1, v + 1) for u, v in edges]


def prism(base):
    n, edges = base
    out = [(2 * u, 2 * v) for u, v in edges] + [(2 * u + 1, 2 * v + 1) for u, v in edges]
    return 2 * n, out + [(2 * v, 2 * v + 1) for v in range(n)]


# Every product is above the 3^n oracle limit, so a solve runs B&B proof, lex
# rebuild and (for max-v2) the max-2s pass; the bipartite ones are
# disconnected and exercise per-component stitching.
SOLVE_PRODUCTS = [
    ("K3xW6", complete(3), hub_plus(cycle(5))),
    ("K3xF6", complete(3), hub_plus(path(5))),
    ("C4xprismC3", cycle(4), prism(cycle(3))),
    ("C4xC4", cycle(4), cycle(4)),
    ("P4xP4", path(4), path(4)),
    ("K23xK23", complete_bipartite(2, 3), complete_bipartite(2, 3)),
    ("C5xC4", cycle(5), cycle(4)),
]
# Solves per product and variant in one pass. The short products run five
# times, so each one's median time rests on five samples: one sample of a
# 0.1 s solve moves by 30 % with the host. C5xC4 alone takes most of a pass.
SOLVE_REPEATS = {"C5xC4": 1}
SHORT_REPEATS = 5
DEADLINE_PRODUCT = ("C5xC5", cycle(5), cycle(5))


def build_product(spec):
    name, (gn, g_edges), (hn, h_edges) = spec
    g = from_edge_list(gn, g_edges, name.split("x")[0])
    h = from_edge_list(hn, h_edges, name.split("x")[1])
    return direct_product(g, h).base


def _warm_up() -> None:
    """Touch every solver path once on a tiny product, so first-call costs land in set-up."""
    tiny = build_product(("K3xP3", complete(3), path(3)))
    solve.gamma_tr_exact(tiny, budget=SOLVE_BUDGET_S)
    solve.gamma_tr_max_v2(tiny, budget=SOLVE_BUDGET_S)
    solve.gamma_tr_bruteforce(tiny)


def _product_matches(g, spec, reference) -> bool:
    _, (gn, g_edges), (hn, h_edges) = spec
    return set(g.edges()) == reference.product_edges(gn, g_edges, hn, h_edges)


class Audit:
    """``trdprod verify --max-n 3 --jobs 1`` in process; one operation per factor pair."""

    name = "audit"
    MAX_N = 3

    def __init__(self, seed: int, out_dir: str):
        # The input is the whole catalog up to MAX_N, so the seed changes nothing here.
        self.seed = seed
        self.report_path = os.path.join(out_dir, f"audit-report-{os.getpid()}.json")

    def setup(self) -> None:
        trdprod.catalog.enumerate_catalog(self.MAX_N)
        _warm_up()

    def run_pass(self, tracer=None) -> list[dict]:
        ops: list[dict] = []
        real = bounds._verify_pair

        def timed_pair(args):
            t0 = _clock()
            rec = real(args)
            ops.append({"op": f"({rec['g']},{rec['h']})", "start": t0, "t": _clock() - t0})
            return rec

        argv = ["verify", "--max-n", str(self.MAX_N), "--jobs", "1",
                "--out", self.report_path]
        bounds._verify_pair = timed_pair
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t_pass = _clock()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
                wall = _clock() - t_pass
        finally:
            bounds._verify_pair = real
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(self.report_path)
        by_pair = {f"({p['g']},{p['h']})": p for p in report["pairs"]}
        for op in ops:
            op["record"] = by_pair.get(op["op"])
        return [{"start": t_pass, "wall": wall, "rc": rc, "report": report, "ops": ops}]

    def check(self, passes: list[dict]) -> tuple[list[str], list[list[str]]]:
        """Returns (whole-run problems, per-operation reasons in order)."""
        import reference

        problems: list[str] = []
        per_op: list[list[str]] = []
        atlas = reference.atlas_classes(2, self.MAX_N)
        expected_pairs = reference.pairs_count(len(atlas))
        matched: dict[tuple, bool] = {}
        solved: dict[str, tuple[int, bool]] = {}
        for p in passes:
            rep = p["report"]
            if p["rc"] != 0:
                problems.append(f"verify exited with {p['rc']}")
            names = tuple(sorted({q["g"] for q in rep["pairs"]} | {q["h"] for q in rep["pairs"]}))
            if names not in matched:
                matched[names] = reference.matches_atlas(
                    [reference.graph6_edges(s) for s in names], atlas)
            if not matched[names]:
                problems.append("catalog classes differ from the networkx atlas")
            if rep["num_pairs"] != expected_pairs or len(p["ops"]) != expected_pairs:
                problems.append(f"{rep['num_pairs']} pairs reported, {len(p['ops'])} run,"
                                f" {expected_pairs} expected")
            if rep["violations"] or rep["skipped"]:
                problems.append("report lists violations or skipped pairs")
            for op in p["ops"]:
                rec = op["record"]
                if rec is None:
                    per_op.append(["pair missing from the report"])
                    continue
                key = op["op"]
                if key not in solved:
                    solved[key] = self._reference_pair(rec["g"], rec["h"], reference)
                optimum, product_ok = solved[key]
                why = []
                if not product_ok:
                    why.append("direct_product edge set differs from networkx")
                if rec["exact"] != optimum:
                    why.append(f"exact {rec['exact']} != ILP optimum {optimum}")
                if rec["violations"]:
                    why.append("violations: " + "; ".join(rec["violations"]))
                if rec["skipped"]:
                    why.append("skipped on budget")
                per_op.append(why)
        return sorted(set(problems)), per_op

    @staticmethod
    def _reference_pair(g6, h6, reference) -> tuple[int, bool]:
        gn, g_edges = reference.graph6_edges(g6)
        hn, h_edges = reference.graph6_edges(h6)
        edges = reference.product_edges(gn, g_edges, hn, h_edges)
        product = direct_product(trdprod.parse_graph6(g6), trdprod.parse_graph6(h6)).base
        optimum = reference.TrdILP(reference.adjacency(gn * hn, edges)).optimum()
        return optimum, set(product.edges()) == edges


class Solve:
    """gamma_tr_exact and gamma_tr_max_v2 on every product; the seed orders the operations."""

    name = "solve"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        ops = [(spec, variant) for spec in SOLVE_PRODUCTS for variant in ("exact", "max_v2")
               for _ in range(SOLVE_REPEATS.get(spec[0], SHORT_REPEATS))]
        random.Random(seed).shuffle(ops)
        self.plan = ops

    def setup(self) -> None:
        self.graphs = {spec[0]: build_product(spec) for spec in SOLVE_PRODUCTS}
        _warm_up()

    def run_pass(self, tracer=None) -> list[dict]:
        ops = []
        t_pass = _clock()
        for spec, variant in self.plan:
            g = self.graphs[spec[0]]
            fn = solve.gamma_tr_exact if variant == "exact" else solve.gamma_tr_max_v2
            op = {"op": f"{spec[0]}:{variant}", "product": spec[0], "variant": variant}
            t0 = op["start"] = _clock()
            try:
                res = fn(g, budget=SOLVE_BUDGET_S)
                op.update(t=_clock() - t0, value=res.value, max_v2=res.max_v2,
                          labels=tuple(res.witness.labels))
            except TrdError as exc:
                op.update(t=_clock() - t0, error=f"{type(exc).__name__}: {exc}")
            ops.append(op)
        return [{"start": t_pass, "wall": _clock() - t_pass, "ops": ops}]

    def check(self, passes):
        import reference

        ref: dict[str, tuple] = {}
        for spec in SOLVE_PRODUCTS:
            name, (gn, g_edges), (hn, h_edges) = spec
            edges = reference.product_edges(gn, g_edges, hn, h_edges)
            ilp = reference.TrdILP(reference.adjacency(gn * hn, edges))
            value = ilp.optimum()
            ref[name] = (ilp, value, ilp.max_twos(value),
                         _product_matches(self.graphs[name], spec, reference))
        # Repeated solves return the same witness, so each distinct answer is checked once.
        seen: dict[tuple, list[str]] = {}
        per_op = []
        for p in passes:
            for op in p["ops"]:
                if "error" in op:
                    per_op.append([f"raised {op['error']}"])
                    continue
                key = (op["product"], op["variant"], op["value"], op["max_v2"], op["labels"])
                if key not in seen:
                    seen[key] = check_solve_op(op, *ref[op["product"]])
                per_op.append(seen[key])
        return [], per_op


def check_solve_op(op: dict, ilp, optimum: int, twos: int, product_ok: bool) -> list[str]:
    """Reasons a solve operation is wrong against the ILP reference; empty when right."""
    import reference

    why = []
    labels = op["labels"]
    if not product_ok:
        why.append("direct_product edge set differs from networkx")
    if not reference.is_trdf(ilp.adj, labels):
        why.append("witness is not a total Roman dominating function")
        return why
    if op["value"] != optimum or sum(labels) != optimum:
        why.append(f"value {op['value']} (witness weight {sum(labels)}) != ILP optimum {optimum}")
        return why
    if op["variant"] == "exact":
        v = ilp.lex_smaller_exists(labels, (optimum, optimum))
    else:
        got = sum(1 for l in labels if l == 2)
        if op["max_v2"] != twos or got != twos:
            why.append(f"2-count {op['max_v2']} (witness {got}) != ILP maximum {twos}")
            return why
        v = ilp.lex_smaller_exists(labels, (optimum, optimum), min_twos=twos)
    if v is not None:
        why.append(f"a lexicographically smaller optimum differs first at vertex {v}")
    return why


class Deadline:
    """gamma_tr_exact on C5 x C5 under a budget far below the proof; fixed input."""

    name = "deadline"

    def __init__(self, seed: int, out_dir: str):
        # Inputs do not depend on the seed: every operation is the same
        # budgeted solve, so a fault in the budget fails each one alike.
        self.seed = seed

    def setup(self) -> None:
        self.graph = build_product(DEADLINE_PRODUCT)
        _warm_up()

    def run_pass(self, tracer=None) -> list[dict]:
        op = {"op": "C5xC5:budget", "budget": DEADLINE_BUDGET_S, "n": self.graph.n}
        t0 = op["start"] = _clock()
        try:
            res = solve.gamma_tr_exact(self.graph, budget=DEADLINE_BUDGET_S)
            op.update(t=_clock() - t0, timeout=False, value=res.value,
                      labels=tuple(res.witness.labels))
        except SolverTimeout as exc:
            op.update(t=_clock() - t0, timeout=True, lower=exc.lower_bound,
                      upper=exc.upper_bound, nodes=exc.nodes)
        except TrdError as exc:
            op.update(t=_clock() - t0, timeout=False, error=f"{type(exc).__name__}: {exc}")
        return [{"start": t0, "wall": op["t"], "ops": [op]}]

    def check(self, passes):
        import reference

        _, (gn, g_edges), (hn, h_edges) = DEADLINE_PRODUCT
        edges = reference.product_edges(gn, g_edges, hn, h_edges)
        ilp = reference.TrdILP(reference.adjacency(gn * hn, edges))
        optimum = ilp.optimum()
        product_ok = _product_matches(self.graph, DEADLINE_PRODUCT, reference)
        per_op = []
        for p in passes:
            for op in p["ops"]:
                why = check_deadline_op(op, ilp.adj, optimum)
                if not product_ok:
                    why.append("direct_product edge set differs from networkx")
                per_op.append(why)
        return [], per_op


def check_deadline_op(op: dict, adj, optimum: int) -> list[str]:
    """A budgeted solve must answer within budget plus allowance, with bounds around the optimum."""
    import reference

    if "error" in op:
        return [f"raised {op['error']}"]
    why = []
    late = op["t"] - op["budget"]
    if late > DEADLINE_ALLOWANCE_S:
        why.append(f"answered {late:.3f} s past the {op['budget']} s budget"
                   f" (allowance {DEADLINE_ALLOWANCE_S} s)")
    if op["timeout"]:
        lo, hi = op["lower"], op["upper"]
        if lo is None or hi is None or not lo <= optimum <= hi:
            why.append(f"timeout bounds [{lo}, {hi}] do not bracket the optimum {optimum}")
    elif op["value"] != optimum or not reference.is_trdf(adj, op["labels"]) \
            or sum(op["labels"]) != optimum:
        why.append(f"solved value {op['value']} is not the optimum {optimum}")
    return why


def timeout_bounds(op: dict) -> tuple[int, int]:
    """Certified (lower, upper) of a timed-out operation.

    A missing bound counts as the trivial one: 2, since a valid labeling has
    two adjacent positive vertices, and n, the weight of the all-1 labeling
    that is valid on every graph without isolated vertices.
    """
    lower = op["lower"] if op["lower"] is not None else 2
    upper = op["upper"] if op["upper"] is not None else op["n"]
    return lower, upper


def bound_ratio(op: dict) -> float:
    """Certified upper over lower bound of an operation; 1 when it was solved."""
    if not op.get("timeout"):
        return 1.0
    lower, upper = timeout_bounds(op)
    return upper / lower


WORKLOADS = {cls.name: cls for cls in (Audit, Solve, Deadline)}
