"""Certified labeling and set constructions on direct products.

Every function re-verifies its output before returning it, so a returned
object is always valid; a verification failure raises ConsistencyError and
means a bug here, not bad input. Bad input raises PreconditionError naming
the violated clause.

This module builds from what it is given and decides nothing: the factor
labelings and sets come from the solvers, and the small-value witnesses
from classify, which alone decides whether a clause holds and picks its
witnesses. SMALL_CASES is the one table of the clauses and their weights.
"""

from __future__ import annotations

from .errors import ConsistencyError, PreconditionError
from .graph import (Graph, ProductGraph, direct_product, is_central_triangle,
                    is_k2)
from .labeling import (LabelFunction, VertexSet, is_efficient_open_dominating,
                       is_total_dominating, is_total_roman_dominating)

# weight of the labeling each small-value clause builds, in clause order
SMALL_CASES = {"ii": 4, "iii_universal": 6, "iii_k2": 6, "iii_triangle": 6, "iv": 7}


def _product_for(g: Graph, h: Graph, product: ProductGraph | None) -> ProductGraph:
    if product is None:
        return direct_product(g, h)
    if product.g_adj != g.adj or product.h_adj != h.adj:
        raise PreconditionError("provided product is not the direct product of the factors")
    return product


def product_trdf_from_factors(g_fn: LabelFunction, h_fn: LabelFunction,
                              product: ProductGraph | None = None) -> LabelFunction:
    """Combine factor labelings into a product labeling.

    Writes 2 on (twos(G) x positives(H)) union (ones(G) x twos(H)), 1 on
    ones(G) x ones(H), 0 elsewhere. The weight is exactly
    w(g)*w(h) - 2*|twos(G)|*|twos(H)|.
    """
    if not is_total_roman_dominating(g_fn):
        raise PreconditionError("first factor labeling is not total Roman dominating")
    if not is_total_roman_dominating(h_fn):
        raise PreconditionError("second factor labeling is not total Roman dominating")
    pg = _product_for(g_fn.graph, h_fn.graph, product)
    labels = [0] * pg.base.n
    for a, la in enumerate(g_fn.labels):
        if la == 0:
            continue
        for b, lb in enumerate(h_fn.labels):
            if lb == 0:
                continue
            if la == 2 or lb == 2:
                labels[pg.vertex_id(a, b)] = 2
            else:
                labels[pg.vertex_id(a, b)] = 1
    out = LabelFunction(pg.base, tuple(labels))
    a2 = len(g_fn.v2)
    b2 = len(h_fn.v2)
    expect = g_fn.weight * h_fn.weight - 2 * a2 * b2
    if out.weight != expect or not is_total_roman_dominating(out):
        raise ConsistencyError("factor-combination labeling failed verification")
    return out


def product_trdf_from_total_dom_sets(d_g: VertexSet, d_h: VertexSet,
                                     product: ProductGraph | None = None) -> LabelFunction:
    """All-2 labeling of the box of two total dominating sets; weight 2|Dg||Dh|."""
    if not is_total_dominating(d_g):
        raise PreconditionError("first set is not total dominating")
    if not is_total_dominating(d_h):
        raise PreconditionError("second set is not total dominating")
    pg = _product_for(d_g.graph, d_h.graph, product)
    labels = [0] * pg.base.n
    for a in d_g.vertices():
        for b in d_h.vertices():
            labels[pg.vertex_id(a, b)] = 2
    out = LabelFunction(pg.base, tuple(labels))
    if out.weight != 2 * d_g.size * d_h.size or not is_total_roman_dominating(out):
        raise ConsistencyError("total-dominating-set product labeling failed verification")
    return out


def product_eod_set(s_g: VertexSet, s_h: VertexSet,
                    product: ProductGraph | None = None) -> VertexSet:
    """The box of two efficient open dominating sets, efficient open dominating again."""
    if not is_efficient_open_dominating(s_g):
        raise PreconditionError("first set is not efficient open dominating")
    if not is_efficient_open_dominating(s_h):
        raise PreconditionError("second set is not efficient open dominating")
    pg = _product_for(s_g.graph, s_h.graph, product)
    members = 0
    for a in s_g.vertices():
        for b in s_h.vertices():
            members |= 1 << pg.vertex_id(a, b)
    out = VertexSet(pg.base, members)
    if not is_efficient_open_dominating(out):
        raise ConsistencyError("product of efficient open dominating sets failed verification")
    return VertexSet(pg.base, members, "efficient_open_dominating")


def _vertex_witness(witnesses: dict, key: str, g: Graph, count: int = 1):
    """The witness under key: one vertex id of g, or a tuple of count of them."""
    if key not in witnesses:
        raise PreconditionError(f"missing witness {key!r}")
    value = witnesses[key]
    ids = (value,) if count == 1 else tuple(value) if isinstance(value, (tuple, list)) else ()
    if len(ids) != count or not all(type(v) is int and 0 <= v < g.n for v in ids):
        raise PreconditionError(f"witness {key}={value!r} needs {count} vertex id(s)"
                                f" in range({g.n})")
    return ids[0] if count == 1 else ids


def small_value_construction(case: str, g: Graph, h: Graph, witnesses: dict,
                             product: ProductGraph | None = None) -> LabelFunction:
    """Low-weight labeling of the product for one small-value clause, built
    from the given witnesses; its weight is SMALL_CASES[case].

    The witnesses are those of classify.small_case_witnesses or of a
    SmallVerdict. They are validated locally (vertex ids in range,
    universality, adjacency, central triangles), not against the clause's
    whole hypothesis. Optimality of the weight is the classifier's claim,
    not this function's.
    """
    if case not in SMALL_CASES:
        raise PreconditionError(f"unknown construction case {case!r}; valid: {tuple(SMALL_CASES)}")
    pg = _product_for(g, h, product)
    labels = [0] * pg.base.n
    if case == "ii":
        if not (is_k2(g) and is_k2(h)):
            raise PreconditionError("case ii needs both factors isomorphic to K2")
        labels = [1] * pg.base.n
    elif case == "iii_universal":
        ga, gb = _vertex_witness(witnesses, "g_pair", g, 2)
        ha, hb = _vertex_witness(witnesses, "h_pair", h, 2)
        for v, side in ((ga, g), (gb, g), (ha, h), (hb, h)):
            if side.degree(v) != side.n - 1:
                raise PreconditionError(f"vertex {v} is not universal in its factor")
        if ga == gb or ha == hb:
            raise PreconditionError("universal vertex pairs must be distinct")
        labels[pg.vertex_id(ga, ha)] = labels[pg.vertex_id(gb, hb)] = 2
        labels[pg.vertex_id(ga, hb)] = labels[pg.vertex_id(gb, ha)] = 1
    elif case == "iii_k2":
        k2_factor = witnesses.get("k2_factor")
        if k2_factor not in (0, 1):
            raise PreconditionError(f"witness k2_factor={k2_factor!r} must be 0 or 1")
        k2, other = (g, h) if k2_factor == 0 else (h, g)
        if not is_k2(k2):
            raise PreconditionError("designated factor is not K2")
        if other.n < 3:
            raise PreconditionError("the non-K2 factor must have order at least three")
        u = _vertex_witness(witnesses, "universal", other)
        u2 = _vertex_witness(witnesses, "neighbor", other)
        if other.degree(u) != other.n - 1:
            raise PreconditionError(f"vertex {u} is not universal in the non-K2 factor")
        if not other.has_edge(u, u2):
            raise PreconditionError(f"{u2} is not a neighbor of {u}")
        for b in (0, 1):
            if k2_factor == 0:
                labels[pg.vertex_id(b, u)] = 2
                labels[pg.vertex_id(b, u2)] = 1
            else:
                labels[pg.vertex_id(u, b)] = 2
                labels[pg.vertex_id(u2, b)] = 1
    elif case == "iii_triangle":
        tg = _vertex_witness(witnesses, "g_triangle", g, 3)
        th = _vertex_witness(witnesses, "h_triangle", h, 3)
        for tri, side in ((tg, g), (th, h)):
            if not is_central_triangle(side, *tri):
                raise PreconditionError(f"{tri} is not a central triangle of its factor")
        for a, b in zip(tg, th):
            labels[pg.vertex_id(a, b)] = 2
    else:  # case iv
        gu = _vertex_witness(witnesses, "g_universal", g)
        gn = _vertex_witness(witnesses, "g_neighbor", g)
        hu = _vertex_witness(witnesses, "h_universal", h)
        hn = _vertex_witness(witnesses, "h_neighbor", h)
        if g.degree(gu) != g.n - 1 or h.degree(hu) != h.n - 1:
            raise PreconditionError("case iv witnesses must be universal vertices")
        if not g.has_edge(gu, gn) or not h.has_edge(hu, hn):
            raise PreconditionError("case iv neighbor witnesses must be adjacent to"
                                    " the universal vertices")
        labels[pg.vertex_id(gu, hu)] = 2
        labels[pg.vertex_id(gu, hn)] = 2
        labels[pg.vertex_id(gn, hu)] = 2
        labels[pg.vertex_id(gn, hn)] = 1
    out = LabelFunction(pg.base, tuple(labels))
    if out.weight != SMALL_CASES[case] or not is_total_roman_dominating(out):
        raise ConsistencyError(f"case {case} labeling failed verification")
    return out
