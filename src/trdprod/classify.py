"""Structural classifiers: universal vertices, triangle-centered detection,
efficient open domination, the small-value decision procedure for
products, and regularity-based exactness certificates.

This is the one module that decides a small-value clause and picks its
witnesses: classify_small_product tries the clauses in order, and
small_case_witnesses names one clause. construct builds the labeling from
those witnesses; SMALL_CASES there holds each clause's weight.

The small-value verdicts are certificates in the mathematical sense; the
verification harness still audits every verdict against the exact solver on
small catalogs rather than trusting the case analysis.

The EOD test has no search of its own: it scans the maximum open packings
that solve enumerates, the same packing search that gives rho and rho_o,
and keeps the first that totally dominates (is_eod_graph says why that
finds every EOD set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import SMALL_CASES, product_eod_set
from .errors import ConsistencyError, PreconditionError
from .graph import (Graph, direct_product, is_central_triangle, is_k2,
                    is_regular, mask_of, require_no_isolated,
                    universal_vertex_list)
from .labeling import VertexSet, is_total_dominating, trdf_from_total_dominating_set
from .solve import SUBSET_LIMIT, SolveResult, gamma_t_exact, maximum_open_packings


@dataclass(frozen=True)
class TriangleCenteredWitness:
    """A triangle every vertex of the graph is adjacent to at least twice."""

    triangle: tuple[int, int, int]


@dataclass(frozen=True)
class SmallVerdict:
    """Outcome of the small-value decision procedure for a factor pair.

    value None means no clause fired; any other value is claimed exact for
    the product and is backed by the recorded witnesses.
    """

    value: int | None
    rule: str
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        wit = {k: list(v) if isinstance(v, tuple) else v for k, v in self.witnesses.items()}
        return {"value": self.value if self.value is not None else "unknown",
                "rule": self.rule, "witnesses": wit}


def universal_vertices(g: Graph) -> VertexSet:
    return VertexSet(g, mask_of(universal_vertex_list(g)))


def triangle_centered(g: Graph) -> TriangleCenteredWitness | None:
    """First central triangle in lexicographic order, if any.

    A triangle is central when every vertex of the graph is adjacent to at
    least two of its corners; corners qualify automatically.
    """
    for x in range(g.n):
        for y in g.neighbors(x):
            for z in g.neighbors(y):
                if x < y < z and is_central_triangle(g, x, y, z):
                    return TriangleCenteredWitness((x, y, z))
    return None


def is_eod_graph(g: Graph) -> VertexSet | None:
    """The lexicographically first efficient open dominating (EOD) set, one
    holding exactly one neighbor of every vertex, or None when there is none.

    Every EOD set S is a maximum open packing. Each vertex has one neighbor
    in S, so the open neighborhoods of S's members are pairwise disjoint,
    and S is an open packing. An open packing is never larger than a total
    dominating set (Henning & Slater, "Open packing in graphs", 1999): each
    member has a neighbor in the dominating set, and disjoint neighborhoods
    give distinct ones. Hence |S| <= rho_o <= gamma_t <= |S|. The maximum
    open packings that totally dominate are therefore exactly the EOD sets,
    and the first in lexicographic order is returned. Its size is
    cross-checked against the total domination number.
    """
    require_no_isolated(g, "efficient open domination")
    for s in maximum_open_packings(g):
        if is_total_dominating(s):
            out = VertexSet(g, s.members, "efficient_open_dominating")
            if out.size != gamma_t_exact(g).value:
                raise ConsistencyError("EOD set size differs from the total domination number")
            return out
    return None


def weight_seven_hypothesis(g: Graph, h: Graph) -> bool:
    """Literal weight-7 clause: both factors carry a universal vertex, some
    factor has exactly one universal vertex while the other factor is not K2,
    and the factors are not both triangle centered.
    """
    ug = universal_vertices(g).size
    uh = universal_vertices(h).size
    if ug == 0 or uh == 0:
        return False
    oriented = (ug == 1 and not is_k2(h)) or (uh == 1 and not is_k2(g))
    if not oriented:
        return False
    return not (triangle_centered(g) is not None and triangle_centered(h) is not None)


_CLAUSE_FAILURE = {
    "ii": "case ii needs both factors isomorphic to K2",
    "iii_universal": "case iii_universal needs two universal vertices per factor",
    "iii_k2": "case iii_k2 needs one K2 factor and one factor of order at least three"
              " with a universal vertex",
    "iii_triangle": "case iii_triangle needs both factors triangle centered",
    "iv": "case iv hypothesis failed: needs a universal vertex in each factor, exactly one"
          " universal vertex in some factor whose partner is not K2, and at most one"
          " triangle centered factor",
}


def _clause_witnesses(case: str, g: Graph, h: Graph) -> dict | None:
    """Lexicographically least witnesses of one SMALL_CASES clause, or None
    when its hypothesis fails."""
    if case == "ii":
        return {} if is_k2(g) and is_k2(h) else None
    ug, uh = universal_vertex_list(g), universal_vertex_list(h)
    if case == "iii_universal":
        if len(ug) >= 2 and len(uh) >= 2 and (g.n >= 3 or h.n >= 3):
            return {"g_pair": tuple(ug[:2]), "h_pair": tuple(uh[:2])}
    elif case == "iii_k2":
        for k2_factor, (a, b, ub) in enumerate(((g, h, uh), (h, g, ug))):
            if is_k2(a) and b.n >= 3 and ub:
                return {"k2_factor": k2_factor, "universal": ub[0],
                        "neighbor": min(b.neighbors(ub[0]))}
    elif case == "iii_triangle":
        tcg, tch = triangle_centered(g), triangle_centered(h)
        if tcg is not None and tch is not None:
            return {"g_triangle": tcg.triangle, "h_triangle": tch.triangle}
    elif case == "iv" and weight_seven_hypothesis(g, h):
        return {"g_universal": ug[0], "g_neighbor": min(g.neighbors(ug[0])),
                "h_universal": uh[0], "h_neighbor": min(h.neighbors(uh[0]))}
    return None


def small_case_witnesses(case: str, g: Graph, h: Graph) -> dict:
    """Lexicographically least witnesses of one small-value clause, for
    construct.small_value_construction; PreconditionError names the clause
    when its hypothesis fails.

    A factor with an isolated vertex raises HypothesisError, as in
    classify_small_product: the product then has no total Roman labeling.
    """
    if case not in SMALL_CASES:
        raise PreconditionError(f"unknown construction case {case!r}; valid: {tuple(SMALL_CASES)}")
    require_no_isolated(g, "small-value construction")
    require_no_isolated(h, "small-value construction")
    found = _clause_witnesses(case, g, h)
    if found is not None:
        return found
    if case == "iii_universal" and is_k2(g) and is_k2(h):
        raise PreconditionError("case iii_universal needs one factor of order at least three")
    raise PreconditionError(_CLAUSE_FAILURE[case])


def classify_small_product(g: Graph, h: Graph) -> SmallVerdict:
    """Decide gamma_tR of the product by case analysis when it is at most 8.

    The SMALL_CASES clauses are tried in order: both-K2 (4), the three
    weight-6 cases, the weight-7 case; then the sufficient weight-8 case;
    anything else is unknown. Clause iv is the literal conjunction documented
    in weight_seven_hypothesis; the harness audits every verdict empirically.
    """
    require_no_isolated(g, "small-value classification")
    require_no_isolated(h, "small-value classification")
    for case, weight in SMALL_CASES.items():
        found = _clause_witnesses(case, g, h)
        if found is not None:
            return SmallVerdict(weight, case, found)
    # clause iii_triangle failed, so the factors are not both triangle centered
    if not (universal_vertex_list(g) and universal_vertex_list(h)):
        if g.n <= SUBSET_LIMIT and h.n <= SUBSET_LIMIT:
            dg = gamma_t_exact(g)
            dh = gamma_t_exact(h)
            if dg.value == 2 and dh.value == 2:
                return SmallVerdict(8, "v",
                                    {"d_g": dg.witness.vertices(),
                                     "d_h": dh.witness.vertices()})
    return SmallVerdict(None, "unknown")


def certify_regular_eod(g: Graph) -> SolveResult | None:
    """Exactness certificate gamma_tR = 2*gamma_t for regular graphs of degree
    at least two with an efficient open dominating set; None when the
    hypotheses fail.

    Degree one is excluded deliberately: a disjoint union of single edges is
    1-regular and efficient open dominating, yet its optimum is the all-1
    labeling of weight n, half of what the certificate would claim.
    """
    if not is_regular(g) or g.max_degree() < 2:
        return None
    eod = is_eod_graph(g)
    if eod is None:
        return None
    witness = trdf_from_total_dominating_set(VertexSet(g, eod.members, "total_dominating"))
    return SolveResult("gamma_tR", 2 * eod.size, witness, "certificate",
                       tie_break_note="all-2 labeling of an efficient open dominating set")


def certify_regular_eod_product(g: Graph, h: Graph) -> SolveResult | None:
    """Product form of the certificate: both factors regular of degree at
    least two with efficient open dominating sets gives
    gamma_tR(GxH) = 2*gamma_t(G)*gamma_t(H)."""
    if not (is_regular(g) and is_regular(h)):
        return None
    if g.max_degree() < 2 or h.max_degree() < 2:
        return None
    sg = is_eod_graph(g)
    sh = is_eod_graph(h)
    if sg is None or sh is None:
        return None
    pg = direct_product(g, h)
    eod = product_eod_set(sg, sh, pg)
    witness = trdf_from_total_dominating_set(
        VertexSet(pg.base, eod.members, "total_dominating"))
    return SolveResult("gamma_tR", 2 * sg.size * sh.size, witness, "certificate",
                       tie_break_note="all-2 labeling of the product of factor EOD sets")
