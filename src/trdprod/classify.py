"""Structural classifiers: efficient open domination, the small-value
decision procedure for products, and the regularity-based exactness
certificate for products.

classify_small_product reports the first SMALL_CASES clause whose
construct.small_clause holds, with that clause's witnesses, so the verdict
and the labeling construct lays come from the same definition; the
sufficient weight-8 clause is decided here.

The small-value verdicts are certificates in the mathematical sense; the
verification harness still audits every verdict against the exact solver on
small catalogs rather than trusting the case analysis.

The EOD test has no search of its own: it asks solve's one subset
enumeration, the one that gives gamma_t, rho and rho_o, for the first set of
rho_o vertices whose open neighbourhoods are pairwise disjoint and cover
every vertex (is_eod_graph says why that finds every EOD set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .construct import SMALL_CASES, product_eod_set, small_clause
from .errors import ConsistencyError
# direct_product is unused here, but perfbench/tracer.py wraps classify.direct_product
from .graph import (Graph, direct_product, is_regular, require_no_isolated,
                    universal_vertex_list)
from .labeling import VertexSet, trdf_from_total_dominating_set
from .solve import SolveResult, _first_sets, gamma_t_exact, rho_o_exact


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


def is_eod_graph(g: Graph) -> VertexSet | None:
    """The lexicographically first efficient open dominating (EOD) set, one
    holding exactly one neighbor of every vertex, or None when there is none.

    Every EOD set S is a maximum open packing. Each vertex has one neighbor
    in S, so the open neighborhoods of S's members are pairwise disjoint,
    and S is an open packing. An open packing is never larger than a total
    dominating set (Henning & Slater, "Open packing in graphs", 1999): each
    member has a neighbor in the dominating set, and disjoint neighborhoods
    give distinct ones. Hence |S| <= rho_o <= gamma_t <= |S|. The EOD sets
    are therefore exactly the sets of rho_o vertices whose open
    neighborhoods are pairwise disjoint and cover every vertex, and the
    first in lexicographic order is returned. Its size is cross-checked
    against the total domination number.
    """
    require_no_isolated(g, "efficient open domination")
    mask = next(_first_sets(g.adj, (rho_o_exact(g).value,), True, True), None)
    if mask is None:
        return None
    out = VertexSet(g, mask, "efficient_open_dominating")
    if out.size != gamma_t_exact(g).value:
        raise ConsistencyError("EOD set size differs from the total domination number")
    return out


def _total_dominating_pair(g: Graph) -> tuple[int, int] | None:
    """The lexicographically first total dominating set of two vertices, or
    None when gamma_t(g) > 2. Each member must be the other's neighbor, so
    the pair is an edge."""
    full = (1 << g.n) - 1
    for u, v in g.edges():
        if g.adj[u] | g.adj[v] == full:
            return u, v
    return None


def classify_small_product(g: Graph, h: Graph) -> SmallVerdict:
    """Decide gamma_tR of the product by case analysis when it is at most 8.

    The SMALL_CASES clauses are tried in order: both-K2 (4), the three
    weight-6 cases, the weight-7 case; then the sufficient weight-8 case;
    anything else is unknown. Each clause, iv's literal conjunction
    included, is construct.small_clause; the harness audits every verdict
    empirically.
    """
    require_no_isolated(g, "small-value classification")
    require_no_isolated(h, "small-value classification")
    for case, weight in SMALL_CASES.items():
        found = small_clause(case, g, h)
        if found is not None:
            return SmallVerdict(weight, case, found[0])
    # clause iii_triangle failed, so the factors are not both triangle centered
    if not (universal_vertex_list(g) and universal_vertex_list(h)):
        dg = _total_dominating_pair(g)
        dh = _total_dominating_pair(h)
        if dg is not None and dh is not None:
            return SmallVerdict(8, "v", {"d_g": dg, "d_h": dh})
    return SmallVerdict(None, "unknown")


def certify_regular_eod_product(g: Graph, h: Graph) -> SolveResult | None:
    """Exactness certificate gamma_tR(GxH) = 2*gamma_t(G)*gamma_t(H) when both
    factors are regular of degree at least two with efficient open
    dominating sets; None when the hypotheses fail.

    Degree one is excluded deliberately: K2 x K2 is two single edges, whose
    optimum is the all-1 labeling of weight 4, half of what the certificate
    would claim.
    """
    if not (is_regular(g) and is_regular(h)):
        return None
    if g.max_degree() < 2 or h.max_degree() < 2:
        return None
    sg = is_eod_graph(g)
    sh = is_eod_graph(h)
    if sg is None or sh is None:
        return None
    witness = trdf_from_total_dominating_set(product_eod_set(sg, sh))
    return SolveResult("gamma_tR", 2 * sg.size * sh.size, witness, "certificate",
                       tie_break_note="all-2 labeling of the product of factor EOD sets")
