"""Immutable simple graphs with per-vertex neighbor bitmasks, and the direct product.

Vertices are dense integers 0..n-1. Adjacency is stored as one Python int
bitmask per vertex, so graphs of any order work, in the exact-search kernels
too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphInputError, HypothesisError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    Attributes:
        n: vertex count.
        adj: tuple of n bitmasks; bit u of adj[v] set iff uv is an edge.
        name: optional text label carried through products and reports.
    """

    n: int
    adj: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise GraphInputError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise GraphInputError(f"adjacency length {len(self.adj)} != n={self.n}")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise GraphInputError(f"adjacency of vertex {v} references vertices >= n")
            if mask >> v & 1:
                raise GraphInputError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphInputError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def relabeled(self, name: str) -> "Graph":
        return Graph(self.n, self.adj, name)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()], "name": self.name}

    def __repr__(self):
        label = self.name or f"graph<{self.n}>"
        return f"Graph({label}, n={self.n}, m={self.num_edges()})"


def _bits(mask: int):
    """Yield set bit positions of a Python int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> list[int]:
    return list(_bits(mask))


def mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def from_edge_list(n: int, edges, name: str = "") -> Graph:
    """Build a graph from ``(u, v)`` pairs; duplicates collapse, loops are rejected."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), name)


def from_json_dict(data: dict) -> Graph:
    try:
        n = int(data["n"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"bad edge-list JSON: {exc}") from exc
    return from_edge_list(n, edges, str(data.get("name", "")))


@dataclass(frozen=True)
class ProductGraph:
    """Direct product G x H with row-major flattening (g, h) -> g*hn + h."""

    base: Graph
    gn: int
    hn: int

    def vertex_id(self, g: int, h: int) -> int:
        return g * self.hn + h

    def coords(self, vid: int) -> tuple[int, int]:
        return divmod(vid, self.hn)

    def project_g(self, vid: int) -> int:
        return vid // self.hn

    def project_h(self, vid: int) -> int:
        return vid % self.hn

    def g_layer(self, h: int) -> list[int]:
        """All product vertices projecting to h (an independent set)."""
        return [g * self.hn + h for g in range(self.gn)]

    def h_layer(self, g: int) -> list[int]:
        """All product vertices projecting to g (an independent set)."""
        return [g * self.hn + h for h in range(self.hn)]


def direct_product(g: Graph, h: Graph) -> ProductGraph:
    """Direct (tensor) product: (a,b)~(a',b') iff aa' in E(G) and bb' in E(H)."""
    if g.n == 0 or h.n == 0:
        raise GraphInputError("direct product requires nonempty factors")
    hn = h.n
    adj = []
    for a in range(g.n):
        g_nbrs = list(_bits(g.adj[a]))
        for b in range(h.n):
            mask = 0
            hmask = h.adj[b]
            for a2 in g_nbrs:
                mask |= hmask << (a2 * hn)
            adj.append(mask)
    gname = g.name or f"G{g.n}"
    hname = h.name or f"H{h.n}"
    base = Graph(g.n * h.n, tuple(adj), f"{gname}x{hname}")
    return ProductGraph(base, g.n, h.n)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in order of
    their smallest vertex."""
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            new = g.adj[v] & ~comp
            comp |= new
            for u in _bits(new):
                queue.append(u)
        seen |= comp
        out.append(list(_bits(comp)))
    return out


def induced_subgraph(g: Graph, vertices: list[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..k-1 in list order."""
    index = {v: i for i, v in enumerate(vertices)}
    adj = []
    for v in vertices:
        mask = 0
        for u in _bits(g.adj[v]):
            if u in index:
                mask |= 1 << index[u]
        adj.append(mask)
    return Graph(len(vertices), tuple(adj), g.name)


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    queue = deque([0])
    while queue:
        v = queue.popleft()
        new = g.adj[v] & ~seen
        seen |= new
        for u in _bits(new):
            queue.append(u)
    return seen == (1 << g.n) - 1


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in _bits(g.adj[v]):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in _bits(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                return False
    return True


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        return True
    d = g.degree(0)
    return all(g.degree(v) == d for v in range(1, g.n))


def has_isolated_vertex(g: Graph) -> bool:
    return any(m == 0 for m in g.adj)


def require_no_isolated(g: Graph, context: str) -> None:
    if has_isolated_vertex(g):
        raise HypothesisError(f"{context} requires a graph without isolated vertices"
                              f" ({g.name or 'input'} has one)")
