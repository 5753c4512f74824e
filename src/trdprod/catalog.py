"""Exhaustive small-graph catalogs, one representative per isomorphism class.

Dedup is brute force over all vertex permutations, which is trivially correct
at the supported orders (at most 5, so at most 120 permutations per graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import SizeLimitError
from .graph import Graph, from_edge_list
from .graph6 import emit_graph6

ENUM_LIMIT = 5


@dataclass(frozen=True)
class Catalog:
    max_order: int
    graphs: tuple[Graph, ...]


def _canonical_key(n: int, pairs: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs))
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def enumerate_catalog(max_n: int) -> Catalog:
    """All isomorphism classes of graphs without isolated vertices on 2..max_n vertices.

    These are the graphs the paper's bounds are stated for.
    """
    if max_n > ENUM_LIMIT:
        raise SizeLimitError(f"exhaustive enumeration limited to {ENUM_LIMIT} vertices;"
                             " load an external graph6 catalog instead")
    graphs: list[Graph] = []
    for n in range(2, max_n + 1):
        slots = list(combinations(range(n), 2))
        seen: set[tuple] = set()
        for mask in range(1 << len(slots)):
            pairs = frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)
            deg = [0] * n
            for u, v in pairs:
                deg[u] += 1
                deg[v] += 1
            if 0 in deg:
                continue
            key = _canonical_key(n, pairs)
            if key in seen:
                continue
            seen.add(key)
            g = from_edge_list(n, sorted(pairs))
            graphs.append(g.relabeled(emit_graph6(g)))
    return Catalog(max_n, tuple(graphs))
