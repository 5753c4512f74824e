"""Parametric graph family generators with documented canonical labelings.

Canonical labelings:
    path(n)         vertices 0-1-...-(n-1)
    cycle(n)        path plus the closing edge (n-1, 0)
    complete(n)
    complete_bipartite(p, q)   parts {0..p-1} and {p..p+q-1}
    star(s)         center 0, leaves 1..s
    wheel(n)        hub 0 joined to the cycle 1..n-1
    fan(n)          hub 0 joined to the path 1..n-1
    complete_minus_matching(n) removes edges (0,1), (2,3), ...; vertex n-1
                    stays unmatched when n is odd
    prism(g)        copies interleaved: v -> 2v and 2v+1, rung edges (2v, 2v+1)
    join(g, h)      g first, h shifted by g.n, all cross edges added

Every builder refuses an order above graph.GRAPH6_MAX_ORDER, the largest
order graph6 encodes, before it builds any edge.
"""

from __future__ import annotations

import re

from .errors import GraphInputError
from .graph import GRAPH6_MAX_ORDER, Graph, from_edge_list
from . import graph6


def _check_order(n: int, family: str) -> None:
    if n > GRAPH6_MAX_ORDER:
        raise GraphInputError(f"{family} of {n} vertices exceeds the largest order graph6 "
                              f"encodes, {GRAPH6_MAX_ORDER}")


def path(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("path requires n >= 1")
    _check_order(n, "path")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle requires n >= 3")
    _check_order(n, "cycle")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("complete graph requires n >= 1")
    _check_order(n, "complete graph")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)], f"K{n}")


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphInputError("complete bipartite requires p, q >= 1")
    _check_order(p + q, "complete bipartite")
    edges = [(i, p + j) for i in range(p) for j in range(q)]
    return from_edge_list(p + q, edges, f"K{p},{q}")


def star(s: int) -> Graph:
    if s < 1:
        raise GraphInputError("star requires s >= 1 leaves")
    return complete_bipartite(1, s).relabeled(f"K1,{s}")


def join(g: Graph, h: Graph, name: str = "") -> Graph:
    _check_order(g.n + h.n, "join")
    edges = g.edges()
    edges += [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + w) for u in range(g.n) for w in range(h.n)]
    return from_edge_list(g.n + h.n, edges, name or f"join({g.name},{h.name})")


def wheel(n: int) -> Graph:
    if n < 4:
        raise GraphInputError("wheel requires n >= 4")
    _check_order(n, "wheel")
    return join(complete(1), cycle(n - 1), f"W{n}")


def fan(n: int) -> Graph:
    if n < 2:
        raise GraphInputError("fan requires n >= 2")
    _check_order(n, "fan")
    return join(complete(1), path(n - 1), f"F{n}")


def complete_minus_matching(n: int) -> Graph:
    if n < 2:
        raise GraphInputError("complete minus matching requires n >= 2")
    _check_order(n, "complete minus matching")
    matched = {(2 * i, 2 * i + 1) for i in range(n // 2)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in matched]
    return from_edge_list(n, edges, f"K{n}-M")


def prism(g: Graph, name: str = "") -> Graph:
    if g.n < 1:
        raise GraphInputError("prism requires a nonempty base graph")
    _check_order(2 * g.n, "prism")
    edges = []
    for u, v in g.edges():
        edges.append((2 * u, 2 * v))
        edges.append((2 * u + 1, 2 * v + 1))
    edges += [(2 * v, 2 * v + 1) for v in range(g.n)]
    return from_edge_list(2 * g.n, edges, name or f"prism({g.name})")


# family kind -> (builder, number of size parameters, number of operand graphs)
FAMILY_BUILDERS = {
    "path": (path, 1, 0),
    "cycle": (cycle, 1, 0),
    "complete": (complete, 1, 0),
    "complete_bipartite": (complete_bipartite, 2, 0),
    "star": (star, 1, 0),
    "wheel": (wheel, 1, 0),
    "fan": (fan, 1, 0),
    "complete_minus_matching": (complete_minus_matching, 1, 0),
    "prism": (prism, 0, 1),
    "join": (join, 0, 2),
}


def generate(kind: str, sizes: tuple[int, ...] = (), operands: tuple[Graph, ...] = ()) -> Graph:
    """Build the family graph of a kind, its integer sizes and its operand graphs;
    parameter checks live in the builders."""
    if kind not in FAMILY_BUILDERS:
        raise GraphInputError(f"unknown family kind {kind!r}; valid: "
                              + ", ".join(sorted(FAMILY_BUILDERS)))
    fn, nsizes, nops = FAMILY_BUILDERS[kind]
    if len(sizes) != nsizes or len(operands) != nops:
        raise GraphInputError(f"family {kind!r} takes {nsizes} size parameter(s) "
                              f"and {nops} operand graph(s)")
    return fn(*sizes, *operands)


_SHORTHAND = [
    (re.compile(r"^K(\d+),(\d+)$"), lambda m: complete_bipartite(int(m[1]), int(m[2]))),
    (re.compile(r"^K(\d+)-M$"), lambda m: complete_minus_matching(int(m[1]))),
    (re.compile(r"^K(\d+)$"), lambda m: complete(int(m[1]))),
    (re.compile(r"^P(\d+)$"), lambda m: path(int(m[1]))),
    (re.compile(r"^C(\d+)$"), lambda m: cycle(int(m[1]))),
    (re.compile(r"^W(\d+)$"), lambda m: wheel(int(m[1]))),
    (re.compile(r"^F(\d+)$"), lambda m: fan(int(m[1]))),
    (re.compile(r"^prismC(\d+)$"), lambda m: prism(cycle(int(m[1])))),
    (re.compile(r"^prismP(\d+)$"), lambda m: prism(path(int(m[1])))),
    (re.compile(r"^prismK(\d+)$"), lambda m: prism(complete(int(m[1])))),
]


def parse_graph_token(token: str) -> Graph:
    """Resolve a terse CLI token: family shorthand first, then graph6 text."""
    for pattern, build in _SHORTHAND:
        m = pattern.match(token)
        if m:
            return build(m)
    g = graph6.parse_graph6(token)
    return g.relabeled(token)
