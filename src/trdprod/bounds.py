"""Bound evaluation for factor pairs and the exhaustive verification harness.

Each pair bound is one row of _BOUNDS: its gate and its formula, written once
for one factor orientation. Every report lists each row with its value and
whether its gate opened, so it always shows why an entry did or did not
participate. The harness computes exact optima for whole catalogs of factor
pairs and checks each theorem-shaped claim empirically, reporting violations
instead of trusting the case analysis. Every claim on a pair's value goes
through one rule, _holds, against the interval the solve certifies: the
exact value when it finishes, the timeout's bounds when it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import classify, construct
from .errors import ConsistencyError, PreconditionError, SolverTimeout
from .graph import (Graph, central_triangle, direct_product, is_bipartite,
                    is_regular, is_triangle_free, require_no_isolated,
                    universal_vertex_list)
from .graph6 import emit_graph6
from .labeling import LabelFunction, VertexSet, is_total_roman_dominating
# gamma_tr_exact is unused here, but perfbench/tracer.py wraps bounds.gamma_tr_exact
from .solve import (ORACLE_LIMIT, ParetoPoint, gamma_t_exact,
                    gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2,
                    rho_exact, rho_o_exact, rho_o_set_inducing_perfect_matching,
                    trdf_pareto_frontier)


@dataclass(frozen=True)
class FactorProfile:
    """Everything the pair bounds need to know about one factor, all exact.

    The fields hold what was solved or tested; each other value is a
    property read from them. frontier runs from gamma_tR to 2*gamma_t, and
    its first point gives gamma_tr, max_v2 and gamma_tr_function.
    """

    graph: Graph
    rho: int
    rho_o: int
    frontier: tuple[ParetoPoint, ...]
    bipartite: bool
    triangle_free: bool
    regular: bool
    eod: VertexSet | None
    universal_count: int
    triangle_witness: tuple[int, int, int] | None
    rho_o_matching_set: VertexSet | None
    gamma_t_set: VertexSet

    @property
    def order(self) -> int:
        return self.graph.n

    @property
    def max_degree(self) -> int:
        return self.graph.max_degree()

    @property
    def gamma_t(self) -> int:
        return self.gamma_t_set.size

    @property
    def gamma_tr(self) -> int:
        return self.frontier[0].weight

    @property
    def max_v2(self) -> int:
        return self.frontier[0].max_v2

    @property
    def gamma_tr_function(self) -> LabelFunction:
        return self.frontier[0].witness

    @property
    def total_roman(self) -> bool:
        return self.gamma_tr == 2 * self.gamma_t

    def to_json_dict(self) -> dict:
        return {
            "graph": emit_graph6(self.graph),
            "name": self.graph.name,
            "order": self.order,
            "max_degree": self.max_degree,
            "gamma_t": self.gamma_t,
            "gamma_tr": self.gamma_tr,
            "rho": self.rho,
            "rho_o": self.rho_o,
            "max_v2": self.max_v2,
            # past 2*gamma_t the best 2-count at weight w is w // 2
            # (trdf_pareto_frontier); the list goes on to 2n
            "frontier": [[p.weight, p.max_v2] for p in self.frontier]
                        + [[w, w // 2] for w in range(self.frontier[-1].weight + 1,
                                                      2 * self.order + 1)],
            "bipartite": self.bipartite,
            "triangle_free": self.triangle_free,
            "regular": self.regular,
            "eod": list(self.eod.vertices()) if self.eod else None,
            "total_roman": self.total_roman,
            "universal_count": self.universal_count,
            "triangle_centered": list(self.triangle_witness)
                                 if self.triangle_witness else None,
            "rho_o_induces_matching": self.rho_o_matching_set is not None,
        }


def factor_profile(g: Graph, budget: float | None = None) -> FactorProfile:
    """Exact invariants and structural flags for one factor graph.

    The frontier's last weight must be twice gamma_t, so the branch-and-bound
    and the subset enumeration check each other. Only what a solve or a test
    gives is stored; FactorProfile derives the rest.
    """
    require_no_isolated(g, "factor profiling")
    # first, so that a factor past the subset limit fails before any search
    gt = gamma_t_exact(g)
    frontier = tuple(trdf_pareto_frontier(g, budget))
    if frontier[-1].weight != 2 * gt.value:
        raise ConsistencyError(f"frontier ends at weight {frontier[-1].weight},"
                               f" not twice gamma_t {gt.value}")
    return FactorProfile(
        graph=g,
        rho=rho_exact(g).value,
        rho_o=rho_o_exact(g).value,
        frontier=frontier,
        bipartite=is_bipartite(g),
        triangle_free=is_triangle_free(g),
        regular=is_regular(g),
        eod=classify.is_eod_graph(g),
        universal_count=len(universal_vertex_list(g)),
        triangle_witness=central_triangle(g),
        rho_o_matching_set=rho_o_set_inducing_perfect_matching(g),
        gamma_t_set=gt.witness,
    )


@dataclass
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper" | "exact"
    value: int | None
    note: str = ""

    @property
    def applicable(self) -> bool:
        # pair_bounds leaves the value None exactly when no gate opens
        return self.value is not None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "value": self.value,
                "applicable": self.applicable, "note": self.note}


@dataclass
class PairReport:
    """All applicable bounds for one factor pair, with the exact value when computed."""

    profile_g: FactorProfile
    profile_h: FactorProfile
    bounds: list[BoundEntry] = field(default_factory=list)
    exact: int | None = None
    verdict: classify.SmallVerdict | None = None

    def entry(self, name: str) -> BoundEntry:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def best_lower(self) -> int | None:
        vals = [b.value for b in self.bounds if b.applicable and b.kind in ("lower", "exact")]
        return max(vals) if vals else None

    def best_upper(self) -> int | None:
        vals = [b.value for b in self.bounds if b.applicable and b.kind in ("upper", "exact")]
        return min(vals) if vals else None

    def to_json_dict(self) -> dict:
        out = {
            "g": emit_graph6(self.profile_g.graph),
            "h": emit_graph6(self.profile_h.graph),
            "g_name": self.profile_g.graph.name,
            "h_name": self.profile_h.graph.name,
            "bounds": [b.to_json_dict() for b in self.bounds],
            "exact": self.exact,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_json_dict()
        return out


def _remark_minimum(fg: tuple[ParetoPoint, ...], fh: tuple[ParetoPoint, ...]) -> int:
    """Minimum of a.weight * b.weight - 2 * a.max_v2 * b.max_v2 over two frontiers.

    Each frontier ends at 2*gamma_t, and going on to 2n would not lower the
    minimum. Past the last point a of fg, weight a.weight + k has best
    2-count (a.weight + k) // 2 (trdf_pareto_frontier), and a.weight is
    2 * a.max_v2, so against any point b the value is at least that of a
    plus k * (b.weight - b.max_v2) >= 0; the same holds with the roles swapped.
    """
    return min(a.weight * b.weight - 2 * a.max_v2 * b.max_v2 for a in fg for b in fh)


# One row per bound: (name, kind, gate(a, b), value(a, b), note). The value
# is only evaluated where the gate is open, and pair_bounds reads each row in
# both factor orientations.
_BOUNDS = (
    ("LB_pack", "lower", lambda a, b: True,
     lambda a, b: b.rho * a.gamma_tr,
     "packing number of one factor times gamma_tR of the other"),
    # The doubled packing bound is unsound when the triangle-free factor has
    # packing number above one: P4 x P4 would get lower bound 16 against its
    # true optimum 8. Restricted to packing number one it survives every
    # exhaustive audit and keeps its tight families.
    ("LB_tfb", "lower",
     lambda a, b: a.triangle_free and a.rho == 1 and b.bipartite and b.order >= 2,
     lambda a, b: 2 * a.rho * b.gamma_tr,
     "doubled packing bound for a triangle-free factor of packing number one"
     " against a bipartite one"),
    ("LB_opack", "lower", lambda a, b: a.order >= 3 and b.order >= 3,
     lambda a, b: math.ceil(b.rho_o * a.gamma_tr / 2),
     "half the open packing product bound, rounded up; both orders >= 3"),
    ("LB_tfr", "lower",
     lambda a, b: (a.triangle_free and a.rho_o_matching_set is not None
                   and b.bipartite and b.order >= 2),
     lambda a, b: a.rho_o * b.gamma_tr,
     "open packing bound when some maximum open packing induces single edges"
     " and the partner is bipartite"),
    ("UB_maxA2", "upper", lambda a, b: True,
     lambda a, b: a.gamma_tr * b.gamma_tr - 2 * a.max_v2 * b.max_v2,
     "combined optimal labelings with the most 2-labels"),
    # Gate on what the derivation actually uses: an optimal labeling with at
    # least one 2-label per factor. Order >= 3 alone admits graphs whose
    # components are all single edges (2K2), where every optimum is all-1
    # and the minus-two bound fails.
    ("UB_minus2", "upper", lambda a, b: a.max_v2 >= 1 and b.max_v2 >= 1,
     lambda a, b: a.gamma_tr * b.gamma_tr - 2,
     "product of the optima minus two; each factor has an optimal"
     " labeling using a 2"),
    ("UB_remark", "upper", lambda a, b: True,
     lambda a, b: _remark_minimum(a.frontier, b.frontier),
     "minimum of the combination formula over the weight/2-count frontiers,"
     " weights capped at twice gamma_t"),
    ("UB_2gt", "upper", lambda a, b: True,
     lambda a, b: 2 * a.gamma_t * b.gamma_t,
     "all-2 labeling of the box of minimum total dominating sets"),
    ("UB_2rho_o", "upper", lambda a, b: a.eod is not None and b.eod is not None,
     lambda a, b: 2 * a.rho_o * b.rho_o,
     "open packing form of the previous bound; both factors efficient"
     " open domination graphs"),
    ("UB_half", "upper", lambda a, b: a.total_roman and b.total_roman,
     lambda a, b: a.gamma_tr * b.gamma_tr // 2,
     "half the product of the optima; both factors total Roman graphs"),
    # Degree one is excluded: K2 x K2 is two single edges, whose optimum 4
    # is half of 2 * gamma_t * gamma_t.
    ("EXACT_regEOD", "exact",
     lambda a, b: (a.regular and b.regular and a.eod is not None and b.eod is not None
                   and a.max_degree >= 2 and b.max_degree >= 2),
     lambda a, b: 2 * a.gamma_t * b.gamma_t,
     "regular factors of degree >= 2 with efficient open dominating sets"
     " pin the value; degree 1 is a known counterexample"),
)


def pair_bounds(pg: FactorProfile, ph: FactorProfile) -> PairReport:
    """Evaluate every row of _BOUNDS with its applicability gate.

    Each row is evaluated on (pg, ph) and on (ph, pg), and the stronger value
    among the orientations whose gate is open is kept: the largest for a
    lower bound, the smallest for an upper bound or a certificate. Half-integer
    lower bounds are rounded up, which is sound for an integer-valued
    invariant.
    """
    rep = PairReport(pg, ph)
    for name, kind, gate, value, note in _BOUNDS:
        vals = [value(a, b) for a, b in ((pg, ph), (ph, pg)) if gate(a, b)]
        best = (max if kind == "lower" else min)(vals) if vals else None
        rep.bounds.append(BoundEntry(name, kind, best, note))
    return rep


def genlower_check(g: Graph, f: LabelFunction, claimed_value: int | None = None) -> dict:
    """Check the order/degree lower-bound inequalities on an optimal labeling.

    When the order equals max_degree * |V2| + |V1| the bound is met with
    equality, which is the certificate route for regular factors. The
    labeling must be valid and, when claimed_value is given, achieve it.
    """
    if f.graph is not g and f.graph != g:
        raise PreconditionError("labeling does not belong to the given graph")
    if not is_total_roman_dominating(f):
        raise PreconditionError("labeling is not total Roman dominating")
    if claimed_value is not None and f.weight != claimed_value:
        raise PreconditionError(f"labeling weight {f.weight} differs from the"
                                f" claimed optimum {claimed_value}")
    n = g.n
    dmax = g.max_degree()
    v1 = len(f.v1)
    v2 = len(f.v2)
    w = f.weight
    weight_ok = w >= n - (dmax - 2) * v2
    count_ok = v2 * dmax >= n - v1
    equality_condition = n == dmax * v2 + v1
    equality_ok = (w == n - (dmax - 2) * v2) if equality_condition else None
    return {
        "order": n, "max_degree": dmax, "v1": v1, "v2": v2, "weight": w,
        "weight_bound": n - (dmax - 2) * v2,
        "weight_bound_ok": weight_ok,
        "v2_bound_ok": count_ok,
        "equality_condition": equality_condition,
        "equality_ok": equality_ok,
        "ok": weight_ok and count_ok and (equality_ok is not False),
    }


@dataclass
class VerificationReport:
    """Merged output of the exhaustive pair verification.

    pairs holds one record per pair, in report order; the violations, the
    skipped pairs and the least open-packing slack are read from them.
    """

    pairs: list[dict]

    @property
    def violations(self) -> list[str]:
        return [v for rec in self.pairs for v in rec["violations"]]

    @property
    def skipped(self) -> list[str]:
        return [f"({rec['g_name']},{rec['h_name']})" for rec in self.pairs if rec["skipped"]]

    @property
    def eod_slack_min(self) -> int | None:
        return min((rec["eod_slack"] for rec in self.pairs if "eod_slack" in rec), default=None)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "num_pairs": len(self.pairs),
            "violations": self.violations,
            "skipped": self.skipped,
            "eod_slack_min": self.eod_slack_min,
            # capping the frontiers at 2*gamma_t loses nothing
            # (_remark_minimum), so there is never a note; the key keeps
            # the report's format
            "remark_cap_notes": [],
            "pairs": self.pairs,
        }

    def csv_rows(self) -> list[list]:
        rows = [["g", "h", "exact", "verdict", "best_lower", "best_upper", "violations"]]
        for p in self.pairs:
            rows.append([p["g"], p["h"], p["exact"],
                         p.get("verdict", {}).get("value", ""),
                         p.get("best_lower", ""), p.get("best_upper", ""),
                         ";".join(p.get("violations", []))])
        return rows


def _holds(kind: str, value: int, low: int, high: int) -> bool:
    """Whether a claim of this kind can hold when the exact value lies in
    [low, high]: a lower claim at most high, an upper claim at least low,
    an exact claim inside the interval."""
    return (kind == "upper" or value <= high) and (kind == "lower" or value >= low)


def _verify_pair(args) -> dict:
    pg, ph, budget = args
    name = f"({pg.graph.name or emit_graph6(pg.graph)},{ph.graph.name or emit_graph6(ph.graph)})"
    rec: dict = {"g": emit_graph6(pg.graph), "h": emit_graph6(ph.graph),
                 "g_name": pg.graph.name, "h_name": ph.graph.name,
                 "violations": [], "skipped": False}
    bad = rec["violations"].append

    rep = pair_bounds(pg, ph)
    verdict = classify.classify_small_product(pg.graph, ph.graph)
    rec["verdict"] = verdict.to_json_dict()

    # Each construction certifies the claim beside it: (key, claim, claimed
    # value, labeling). Its weight must equal that value, and it is an
    # upper claim on the exact value below.
    built = [("from_factors", "UB_maxA2", rep.entry("UB_maxA2").value,
              construct.product_trdf_from_factors(pg.gamma_tr_function,
                                                  ph.gamma_tr_function)),
             ("from_total_dom_sets", "UB_2gt", rep.entry("UB_2gt").value,
              construct.product_trdf_from_total_dom_sets(pg.gamma_t_set, ph.gamma_t_set))]
    if verdict.value is not None and verdict.rule in construct.SMALL_CASES:
        built.append((f"small_{verdict.rule}", "verdict", verdict.value,
                      construct.small_value_construction(verdict.rule, pg.graph, ph.graph)))
    cons = {key: f.weight for key, _, _, f in built}
    for key, claim, value, f in built:
        if f.weight != value:
            bad(f"{name}: construction {key} weight {f.weight} != {claim} {value}")
    if pg.eod is not None and ph.eod is not None:
        eod = construct.product_eod_set(pg.eod, ph.eod)
        cons["eod_box_size"] = eod.size
        if pg.rho_o != pg.gamma_t or ph.rho_o != ph.gamma_t:
            bad(f"{name}: EOD factor with rho_o != gamma_t")
    rec["constructions"] = cons

    # One solve certifies the interval [low, high] that holds the value:
    # one point when it finishes, the timeout's bounds when it does not.
    # Every claim is checked against that interval; the oracle and the
    # slack need a proven value (low == high), and the order/degree and
    # triangle checks the solve's max-2s witness.
    product = direct_product(pg.graph, ph.graph).base
    best2 = None
    try:
        best2 = gamma_tr_max_v2(product, budget)
        low = high = best2.value
    except SolverTimeout as exc:
        rec["skipped"] = True
        low, high = exc.lower_bound, exc.upper_bound
        rec["timeout_bounds"] = [low, high]
    exact = rec["exact"] = low if low == high else None

    if exact is not None and product.n <= ORACLE_LIMIT:
        oracle = gamma_tr_bruteforce(product)
        rec["oracle"] = oracle.value
        if oracle.value != exact:
            bad(f"{name}: branch-and-bound {exact} disagrees with brute force {oracle.value}")
        elif best2 is not None and oracle.max_v2 != best2.max_v2:
            bad(f"{name}: branch-and-bound max 2-count {best2.max_v2} disagrees with"
                f" brute force {oracle.max_v2}")

    claims = [(b.kind, b.name, b.value) for b in rep.bounds if b.applicable]
    claims += [("upper", f"construction {key}", f.weight) for key, _, _, f in built]
    if verdict.value is not None:
        claims.append(("exact", f"verdict {verdict.rule}", verdict.value))
    for kind, claim, value in claims:
        if not _holds(kind, value, low, high):
            bad(f"{name}: {kind} claim {claim}={value} fails against [{low}, {high}]")
    rec["best_lower"] = rep.best_lower()
    rec["best_upper"] = rep.best_upper()
    rec["bounds"] = [b.to_json_dict() for b in rep.bounds]

    remark = rep.entry("UB_remark").value
    maxa2 = rep.entry("UB_maxA2").value
    if remark > maxa2:
        bad(f"{name}: UB_remark {remark} > UB_maxA2 {maxa2}")
    minus2 = rep.entry("UB_minus2")
    if minus2.applicable and maxa2 > minus2.value:
        bad(f"{name}: UB_maxA2 {maxa2} > UB_minus2 {minus2.value}")

    opack = rep.entry("LB_opack")
    if exact is not None and opack.applicable:
        rec["eod_slack"] = exact - opack.value

    if best2 is None:
        return rec
    gl = genlower_check(product, best2.witness, exact)
    rec["genlower"] = gl
    if not gl["ok"]:
        bad(f"{name}: order/degree lower bound inequalities failed: {gl}")

    if pg.order >= 3 and ph.order >= 3:
        tc_both = pg.triangle_witness is not None and ph.triangle_witness is not None
        weight_six = exact == 6
        support3 = len(best2.witness.v1) + len(best2.witness.v2) == 3
        rec["triangle"] = {"tc_both": tc_both, "weight_six": weight_six,
                           "support3": support3}
        if not (tc_both == weight_six == support3):
            bad(f"{name}: triangle-centered equivalence broken: tc={tc_both},"
                f" six={weight_six}, support3={support3}")
    return rec


def verify_theorems(catalog: list[Graph], budget: float | None = None,
                    jobs: int = 1) -> VerificationReport:
    """Exhaustively audit all bounds, verdicts and constructions on every
    unordered factor pair from the catalog (pairs with itself included).

    A budget of None means solve.DEFAULT_BUDGET_S. jobs must be at least
    1; above 1, the pairs run in a pool of that many processes. The report
    holds the pair records sorted by graph6 and reads its totals from them.
    """
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, got {jobs}")
    profiles = [factor_profile(g, budget) for g in catalog]
    tasks = []
    for i, pg in enumerate(profiles):
        for ph in profiles[i:]:
            tasks.append((pg, ph, budget))
    if jobs > 1:
        # Imported only here: the pool machinery adds 1-2 MB of memory to
        # every process that imports this module, and most never run a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_verify_pair, tasks))
    else:
        records = [_verify_pair(t) for t in tasks]
    return VerificationReport(sorted(records, key=lambda r: (r["g"], r["h"])))
