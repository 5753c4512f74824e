"""Certified labeling and set constructions on direct products.

Each builder takes factor labelings, factor sets or factors and builds
their direct product itself. A labeling builder only picks its cells, the
(G vertex, H vertex) pairs of positive label; one helper, _laid, lays them
on the product and re-verifies the labeling through labeling.verified.
Every function re-verifies its output before returning it, so a returned
object is always valid; a verification failure raises ConsistencyError and
means a bug here, not bad input. Bad input raises PreconditionError naming
the violated clause.

The factor labelings and sets come from the solvers. The small-value
clauses are the exception: small_clause is the one definition of each,
deciding whether its hypothesis holds, picking its witnesses and laying its
labeling, and classify reports the same witnesses in its verdicts.
SMALL_CASES is the one table of the clauses and their weights.
"""

from __future__ import annotations

from .errors import ConsistencyError, PreconditionError
from .graph import (Graph, central_triangle, direct_product, is_k2,
                    require_no_isolated, universal_vertex_list)
from .labeling import (LabelFunction, VertexSet, is_efficient_open_dominating,
                       is_total_dominating, is_total_roman_dominating, verified)

# weight of the labeling each small-value clause builds, in clause order
SMALL_CASES = {"ii": 4, "iii_universal": 6, "iii_k2": 6, "iii_triangle": 6, "iv": 7}


def _laid(g: Graph, h: Graph, cells: dict, weight: int, message: str) -> LabelFunction:
    """The labeling of G x H with cells[(a, b)] at (a, b) and 0 elsewhere,
    verified to weigh weight; ConsistencyError(message) otherwise."""
    pg = direct_product(g, h)
    labels = [0] * pg.base.n
    for (a, b), label in cells.items():
        labels[pg.vertex_id(a, b)] = label
    return verified(pg.base, labels, weight, None, message)


def product_trdf_from_factors(g_fn: LabelFunction, h_fn: LabelFunction) -> LabelFunction:
    """Combine factor labelings into a product labeling.

    Writes 2 on (twos(G) x positives(H)) union (ones(G) x twos(H)), 1 on
    ones(G) x ones(H), 0 elsewhere: the larger of the two labels where both
    are positive. The weight is exactly w(g)*w(h) - 2*|twos(G)|*|twos(H)|.
    """
    if not is_total_roman_dominating(g_fn):
        raise PreconditionError("first factor labeling is not total Roman dominating")
    if not is_total_roman_dominating(h_fn):
        raise PreconditionError("second factor labeling is not total Roman dominating")
    cells = {(a, b): max(la, lb) for a, la in enumerate(g_fn.labels) if la
             for b, lb in enumerate(h_fn.labels) if lb}
    return _laid(g_fn.graph, h_fn.graph, cells,
                 g_fn.weight * h_fn.weight - 2 * len(g_fn.v2) * len(h_fn.v2),
                 "factor-combination labeling failed verification")


def product_trdf_from_total_dom_sets(d_g: VertexSet, d_h: VertexSet) -> LabelFunction:
    """All-2 labeling of the box of two total dominating sets; weight 2|Dg||Dh|."""
    if not is_total_dominating(d_g):
        raise PreconditionError("first set is not total dominating")
    if not is_total_dominating(d_h):
        raise PreconditionError("second set is not total dominating")
    cells = {(a, b): 2 for a in d_g.vertices() for b in d_h.vertices()}
    return _laid(d_g.graph, d_h.graph, cells, 2 * d_g.size * d_h.size,
                 "total-dominating-set product labeling failed verification")


def product_eod_set(s_g: VertexSet, s_h: VertexSet) -> VertexSet:
    """The box of two efficient open dominating sets, efficient open dominating again."""
    if not is_efficient_open_dominating(s_g):
        raise PreconditionError("first set is not efficient open dominating")
    if not is_efficient_open_dominating(s_h):
        raise PreconditionError("second set is not efficient open dominating")
    pg = direct_product(s_g.graph, s_h.graph)
    members = 0
    for a in s_g.vertices():
        for b in s_h.vertices():
            members |= 1 << pg.vertex_id(a, b)
    # the role tag runs the one check of the box
    try:
        return VertexSet(pg.base, members, "efficient_open_dominating")
    except PreconditionError:
        raise ConsistencyError(
            "product of efficient open dominating sets failed verification") from None


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


def small_clause(case: str, g: Graph, h: Graph) -> tuple[dict, dict] | None:
    """One SMALL_CASES clause: its lexicographically least witnesses and the
    cells its labeling lays, or None when its hypothesis fails.

    cells maps each (G vertex, H vertex) of positive label to that label;
    every other product vertex is labeled 0. The factors must have no
    isolated vertex.
    """
    if case == "ii":
        if is_k2(g) and is_k2(h):
            return {}, {(a, b): 1 for a in (0, 1) for b in (0, 1)}
        return None
    ug, uh = universal_vertex_list(g), universal_vertex_list(h)
    if case == "iii_universal":
        if len(ug) >= 2 and len(uh) >= 2 and (g.n >= 3 or h.n >= 3):
            (ga, gb), (ha, hb) = ug[:2], uh[:2]
            return ({"g_pair": (ga, gb), "h_pair": (ha, hb)},
                    {(ga, ha): 2, (gb, hb): 2, (ga, hb): 1, (gb, ha): 1})
    elif case == "iii_k2":
        for k2_factor, (a, b, ub) in enumerate(((g, h, uh), (h, g, ug))):
            if is_k2(a) and b.n >= 3 and ub:
                u = ub[0]
                u2 = min(b.neighbors(u))
                cells = {(x, v): label for x in (0, 1) for v, label in ((u, 2), (u2, 1))}
                if k2_factor == 1:
                    cells = {(v, x): label for (x, v), label in cells.items()}
                return {"k2_factor": k2_factor, "universal": u, "neighbor": u2}, cells
    elif case == "iii_triangle":
        tg, th = central_triangle(g), central_triangle(h)
        if tg is not None and th is not None:
            return {"g_triangle": tg, "h_triangle": th}, dict.fromkeys(zip(tg, th), 2)
    # clause iv, literally: both factors carry a universal vertex, some factor
    # has exactly one while the other is not K2, and the factors are not both
    # triangle centered
    elif (case == "iv" and ug and uh
          and ((len(ug) == 1 and not is_k2(h)) or (len(uh) == 1 and not is_k2(g)))
          and (central_triangle(g) is None or central_triangle(h) is None)):
        gu, hu = ug[0], uh[0]
        gn, hn = min(g.neighbors(gu)), min(h.neighbors(hu))
        return ({"g_universal": gu, "g_neighbor": gn, "h_universal": hu, "h_neighbor": hn},
                {(gu, hu): 2, (gu, hn): 2, (gn, hu): 2, (gn, hn): 1})
    return None


def small_value_construction(case: str, g: Graph, h: Graph) -> LabelFunction:
    """Low-weight labeling of the product for one small-value clause, laid
    on the cells small_clause picks; its weight is SMALL_CASES[case].

    PreconditionError names the clause when its hypothesis fails. A factor
    with an isolated vertex raises HypothesisError, as in
    classify.classify_small_product: the product then has no total Roman
    labeling. Optimality of the weight is the classifier's claim, not this
    function's.
    """
    if case not in SMALL_CASES:
        raise PreconditionError(f"unknown construction case {case!r}; valid: {tuple(SMALL_CASES)}")
    require_no_isolated(g, "small-value construction")
    require_no_isolated(h, "small-value construction")
    found = small_clause(case, g, h)
    if found is None:
        if case == "iii_universal" and is_k2(g) and is_k2(h):
            raise PreconditionError("case iii_universal needs one factor of order at least three")
        raise PreconditionError(_CLAUSE_FAILURE[case])
    return _laid(g, h, found[1], SMALL_CASES[case], f"case {case} labeling failed verification")
