"""Reference results computed without trdprod.

Everything here is built from networkx and scipy alone, so a fault in
trdprod's graphs, predicates or solvers cannot hide behind a matching fault
in the checker:

- products come from ``networkx.tensor_product`` and are flattened row-major,
  vertex (a, b) -> a * |H| + b, the layout trdprod documents for its own
  products;
- validity is this module's own total Roman domination predicate;
- optima come from a 0/1 ILP solved by HiGHS (``scipy.optimize.milp``), and
  every ILP labeling is re-checked in integer arithmetic before it is used.

The ILP has two binaries per vertex: x_v (label >= 1) and y_v (label 2), with
y_v <= x_v, x_v + sum_{N(v)} y >= 1 (a 0 sees a 2) and sum_{N(v)} x >= x_v (a
positive label sees a positive label). The label of v is x_v + y_v.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

_CHECK_TIME_LIMIT = 120.0


class ReferenceError(RuntimeError):
    """The reference solver itself could not certify an answer."""


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def product_edges(gn: int, g_edges, hn: int, h_edges) -> set[tuple[int, int]]:
    """Edge set of G x H from networkx, as sorted index pairs."""
    prod = nx.tensor_product(nx_graph(gn, g_edges), nx_graph(hn, h_edges))
    out = set()
    for (a, b), (c, d) in prod.edges():
        u, v = a * hn + b, c * hn + d
        out.add((min(u, v), max(u, v)))
    return out


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_trdf(adj: list[set[int]], labels) -> bool:
    """Total Roman domination: each 0 sees a 2, each positive label sees a positive label."""
    if len(labels) != len(adj) or any(l not in (0, 1, 2) for l in labels):
        return False
    for v, lab in enumerate(labels):
        if lab == 0:
            if not any(labels[u] == 2 for u in adj[v]):
                return False
        elif not any(labels[u] >= 1 for u in adj[v]):
            return False
    return True


class TrdILP:
    """The 0/1 model of one graph; each query adds its own side constraints."""

    def __init__(self, adj: list[set[int]]):
        self.adj = adj
        n = self.n = len(adj)
        rows = []
        lows = []
        highs = []
        for v in range(n):
            y_le_x = np.zeros(2 * n)
            y_le_x[n + v] = 1.0
            y_le_x[v] = -1.0
            zero_sees_two = np.zeros(2 * n)
            zero_sees_two[v] = 1.0
            pos_sees_pos = np.zeros(2 * n)
            pos_sees_pos[v] = -1.0
            for u in adj[v]:
                zero_sees_two[n + u] += 1.0
                pos_sees_pos[u] += 1.0
            rows += [y_le_x, zero_sees_two, pos_sees_pos]
            lows += [-np.inf, 1.0, 0.0]
            highs += [0.0, np.inf, np.inf]
        self._rows = np.array(rows)
        self._lows = np.array(lows)
        self._highs = np.array(highs)

    def _solve(self, objective, weight=None, min_twos=None, fixed=None, cap=None):
        """Solve with optional weight range, 2-count floor, fixed labels and one label cap.

        weight is (low, high) on sum(label); fixed maps vertex -> label; cap is
        (vertex, largest allowed label).
        """
        n = self.n
        rows = [self._rows]
        lows = [self._lows]
        highs = [self._highs]
        if weight is not None:
            rows.append(np.ones((1, 2 * n)))
            lows.append(np.array([weight[0]], dtype=float))
            highs.append(np.array([weight[1]], dtype=float))
        if min_twos is not None:
            r = np.zeros((1, 2 * n))
            r[0, n:] = 1.0
            rows.append(r)
            lows.append(np.array([min_twos], dtype=float))
            highs.append(np.array([np.inf]))
        lb = np.zeros(2 * n)
        ub = np.ones(2 * n)
        for v, lab in (fixed or {}).items():
            lb[v] = ub[v] = 1.0 if lab >= 1 else 0.0
            lb[n + v] = ub[n + v] = 1.0 if lab == 2 else 0.0
        if cap is not None:
            v, top = cap
            if top < 2:
                ub[n + v] = 0.0
            if top < 1:
                ub[v] = 0.0
        res = milp(objective, integrality=np.ones(2 * n),
                   bounds=Bounds(lb, ub),
                   constraints=LinearConstraint(np.vstack(rows), np.concatenate(lows),
                                                np.concatenate(highs)),
                   options={"time_limit": _CHECK_TIME_LIMIT})
        if res.status == 2:
            return None
        if res.status != 0:
            raise ReferenceError(f"HiGHS stopped with status {res.status}: {res.message}")
        z = np.rint(res.x).astype(int)
        labels = tuple(int(z[v] + z[n + v]) for v in range(n))
        if any(z[n + v] > z[v] for v in range(n)) or not is_trdf(self.adj, labels):
            raise ReferenceError("HiGHS labeling fails the integer re-check")
        return res, labels

    def optimum(self) -> int:
        """gamma_tR, proven when the dual bound closes the gap to the integer optimum."""
        res, labels = self._solve(np.ones(2 * self.n))
        value = sum(labels)
        if not res.mip_dual_bound > value - 1 + 1e-6:
            raise ReferenceError(f"optimum {value} not proven (dual {res.mip_dual_bound})")
        return value

    def max_twos(self, weight: int) -> int:
        """Largest 2-count over valid labelings of exactly the given weight."""
        obj = np.concatenate([np.zeros(self.n), -np.ones(self.n)])
        found = self._solve(obj, weight=(weight, weight))
        if found is None:
            raise ReferenceError(f"no valid labeling of weight {weight}")
        res, labels = found
        twos = sum(1 for l in labels if l == 2)
        if sum(labels) != weight or not -res.mip_dual_bound < twos + 1 - 1e-6:
            raise ReferenceError(f"2-count {twos} at weight {weight} not proven")
        return twos

    def lex_smaller_exists(self, labels, weight: tuple[int, int],
                           min_twos: int | None = None) -> int | None:
        """First vertex at which some labeling in the class beats ``labels``, or None.

        The class is every valid labeling with weight in the given range and
        at least min_twos 2-labels. For each vertex v with a positive label,
        the labels before v are fixed and v is capped one below its label; a
        feasible ILP means a lexicographically smaller member exists.
        """
        zero = np.zeros(2 * self.n)
        for v, lab in enumerate(labels):
            if lab == 0:
                continue
            fixed = {u: labels[u] for u in range(v)}
            if self._solve(zero, weight=weight, min_twos=min_twos,
                           fixed=fixed, cap=(v, lab - 1)) is not None:
                return v
        return None


def atlas_classes(min_order: int, max_order: int) -> list[nx.Graph]:
    """Isomorphism classes without isolated vertices, taken from the graph atlas."""
    return [g for g in nx.graph_atlas_g()
            if min_order <= g.number_of_nodes() <= max_order
            and min((d for _, d in g.degree()), default=0) >= 1]


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    g = nx.from_graph6_bytes(text.encode("ascii"))
    return g.number_of_nodes(), [(min(u, v), max(u, v)) for u, v in g.edges()]


def matches_atlas(classes: list[tuple[int, list]], atlas: list[nx.Graph]) -> bool:
    """The given graphs are pairwise non-isomorphic and each matches one atlas class."""
    if len(classes) != len(atlas):
        return False
    unmatched = list(atlas)
    for n, edges in classes:
        g = nx_graph(n, edges)
        hit = next((i for i, a in enumerate(unmatched) if nx.is_isomorphic(g, a)), None)
        if hit is None:
            return False
        unmatched.pop(hit)
    return True


def pairs_count(k: int) -> int:
    """Unordered pairs with repetition from k classes."""
    return math.comb(k + 1, 2)
