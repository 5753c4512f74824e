"""Immutable simple graphs with per-vertex neighbor bitmasks, the direct product,
and orbit tests built from verified automorphisms that keep a vertex colouring.

Vertices are dense integers 0..n-1. Adjacency is stored as one Python int
bitmask per vertex, so graphs of any order work, in the exact-search kernels
too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphInputError, HypothesisError

# the largest order graph6 encodes; every report names its graphs in graph6
GRAPH6_MAX_ORDER = 258047


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
        adj = self.adj
        for v, mask in enumerate(adj):
            if mask >> self.n:
                raise GraphInputError(f"adjacency of vertex {v} references vertices >= n")
            if mask >> v & 1:
                raise GraphInputError(f"self-loop at vertex {v}")
        for v, mask in enumerate(adj):
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise GraphInputError(f"asymmetric adjacency between {u} and {v}")
                mask ^= low

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def neighbors(self, v: int) -> list[int]:
        return bits_of(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def relabeled(self, name: str) -> "Graph":
        return Graph(self.n, self.adj, name)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()], "name": self.name}

    def __repr__(self):
        label = self.name or f"graph<{self.n}>"
        return f"Graph({label}, n={self.n}, m={self.num_edges()})"


def bits_of(mask: int) -> list[int]:
    """Set bit positions of a Python int, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    """A graph from edge-list JSON: {"n": order, "edges": [[u, v], ...], "name": text}.

    n and every edge end must be JSON integers, and n at most
    GRAPH6_MAX_ORDER; anything else is a GraphInputError.
    """
    try:
        n = data["n"]
        edges = [(u, v) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphInputError(f"bad edge-list JSON: {exc}") from exc
    if type(n) is not int or not 0 <= n <= GRAPH6_MAX_ORDER:
        raise GraphInputError(f"bad edge-list JSON: n must be an integer from 0 to "
                              f"{GRAPH6_MAX_ORDER}, got {n!r}")
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise GraphInputError(f"bad edge-list JSON: edge [{u!r}, {v!r}] has a "
                                  f"non-integer end")
    return from_edge_list(n, edges, str(data.get("name", "")))


@dataclass(frozen=True)
class ProductGraph:
    """Direct product G x H with row-major flattening (g, h) -> g*hn + h."""

    base: Graph
    gn: int
    hn: int

    def vertex_id(self, g: int, h: int) -> int:
        return g * self.hn + h


def direct_product(g: Graph, h: Graph) -> ProductGraph:
    """Direct (tensor) product: (a,b)~(a',b') iff aa' in E(G) and bb' in E(H)."""
    if g.n == 0 or h.n == 0:
        raise GraphInputError("direct product requires nonempty factors")
    hn = h.n
    adj = []
    for a in range(g.n):
        g_nbrs = bits_of(g.adj[a])
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


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, in order of their smallest
    vertex."""
    adj = g.adj
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = frontier = 1 << start
        while frontier:
            reach = 0
            for v in bits_of(frontier):
                reach |= adj[v]
            frontier = reach & ~comp
            comp |= frontier
        seen |= comp
        out.append(comp)
    return out


# Each automorphism search gives up after this many vertex assignments per
# vertex of the component it maps, and the answer is then False. With the
# common-neighbour test below, the vertex-transitive graphs in the tests
# need at most 1.25n assignments per search (C4 x prism(C3): 29 on 24
# vertices), so the cap mainly bounds the time spent on a regular graph
# that is not vertex-transitive, or on targets in different orbits.
_AUTOMORPHISM_STEPS_PER_VERTEX = 8


def pair_table(g: Graph) -> list[list[int]]:
    """Row u, column w: twice the number of common neighbours of u and w,
    plus 1 when uw is an edge; the diagonal holds twice each degree.

    Every automorphism keeps this table, and matching it prunes twins early
    in the automorphism search.
    """
    adj = g.adj
    return [[(adj[u] & adj[w]).bit_count() << 1 | adj[u] >> w & 1 for w in range(g.n)]
            for u in range(g.n)]


def in_one_orbit(g: Graph, pair: list[list[int]], colour, targets) -> bool:
    """Whether verified automorphisms that keep the vertex colouring carry
    every target vertex onto the first one.

    pair is pair_table(g), and colour[v] is any value per vertex. The
    automorphisms move only the component of the first target and fix
    every other vertex. True is a proof: each automorphism found is checked
    edge by edge and colour by colour, and the orbit of the first target
    under the group they generate holds every target. False means not in
    one orbit or not shown to be: the answer is False at once when a target
    lies outside the first target's component or differs from the first in
    colour or degree, and also when a capped search for an automorphism
    gives up.
    """
    adj = g.adj
    targets = list(targets)
    src = targets[0]
    if any(colour[t] != colour[src] or pair[t][t] != pair[src][src] for t in targets):
        return False
    order = [src]
    parent = [src] * g.n
    seen = 1 << src
    for v in order:
        for u in bits_of(adj[v] & ~seen):
            seen |= 1 << u
            parent[u] = v
            order.append(u)
    if any(not seen >> t & 1 for t in targets):
        return False
    gens: list[list[int]] = []
    orbit = 1 << src
    for target in targets:
        if orbit >> target & 1:
            continue
        image = _automorphism_to(adj, pair, colour, order, parent, target,
                                 _AUTOMORPHISM_STEPS_PER_VERTEX * len(order))
        if (image is None or not _is_automorphism(g, image)
                or any(colour[image[v]] != colour[v] for v in order)):
            return False
        gens.append(image)
        frontier = bits_of(orbit)
        while frontier:
            v = frontier.pop()
            for s in gens:
                if not orbit >> s[v] & 1:
                    orbit |= 1 << s[v]
                    frontier.append(s[v])
    return True


def _automorphism_to(adj, pair, colour, order, parent, dst: int, cap: int):
    """A vertex map sending order[0] to dst that keeps every colour and every
    pair's adjacency and common-neighbour count, or None when there is none
    or the backtracking gives up after cap assignments.

    order lists the component of order[0] in breadth-first order, and each
    one's image is a neighbour of its BFS parent's image; every vertex
    outside it maps to itself.
    """
    k = len(order)
    image = list(range(len(adj)))
    image[order[0]] = dst
    used = 1 << dst
    cands = [0] * k
    depth = 1
    fresh = True
    steps = 0
    while depth < k:
        u = order[depth]
        m = adj[image[parent[u]]] & ~used if fresh else cands[depth]
        pu = pair[u]
        cu = colour[u]
        mapped = order[:depth]
        while m:
            low = m & -m
            m ^= low
            c = low.bit_length() - 1
            pc = pair[c]
            if (colour[c] == cu and pc[c] == pu[u]
                    and all(pu[w] == pc[image[w]] for w in mapped)):
                break
        else:
            c = -1
        cands[depth] = m
        if c >= 0:
            steps += 1
            if steps > cap:
                return None
            image[u] = c
            used |= 1 << c
            depth += 1
            fresh = True
            continue
        depth -= 1
        if depth == 0:
            return None
        v = order[depth]
        used ^= 1 << image[v]
        image[v] = -1
        fresh = False
    return image


def _is_automorphism(g: Graph, image: list[int]) -> bool:
    """Whether image is a bijection of the vertices that maps every
    neighbourhood onto the neighbourhood of the image."""
    if sorted(image) != list(range(g.n)):
        return False
    for v in range(g.n):
        mapped = 0
        for u in bits_of(g.adj[v]):
            mapped |= 1 << image[u]
        if mapped != g.adj[image[v]]:
            return False
    return True


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in bits_of(g.adj[v]):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in bits_of(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                return False
    return True


def is_regular(g: Graph) -> bool:
    if g.n == 0:
        return True
    d = g.degree(0)
    return all(g.degree(v) == d for v in range(1, g.n))


def is_k2(g: Graph) -> bool:
    return g.n == 2 and g.num_edges() == 1


def universal_vertex_list(g: Graph) -> list[int]:
    """Vertices adjacent to every other vertex, lowest first."""
    return [v for v in range(g.n) if g.degree(v) == g.n - 1]


def is_central_triangle(g: Graph, x: int, y: int, z: int) -> bool:
    """Whether xyz is a triangle and every other vertex is adjacent to at
    least two of its corners. The ids must be vertices of g."""
    ax, ay, az = g.adj[x], g.adj[y], g.adj[z]
    if not (ax >> y & 1 and ay >> z & 1 and ax >> z & 1):
        return False
    seen_twice = ax & ay | ay & az | ax & az
    others = (1 << g.n) - 1 & ~(1 << x | 1 << y | 1 << z)
    return not others & ~seen_twice


def central_triangle(g: Graph) -> tuple[int, int, int] | None:
    """The first central triangle in lexicographic order, or None when g is
    not triangle centered."""
    for x in range(g.n):
        for y in g.neighbors(x):
            for z in g.neighbors(y):
                if x < y < z and is_central_triangle(g, x, y, z):
                    return x, y, z
    return None


def has_isolated_vertex(g: Graph) -> bool:
    return 0 in g.adj


def require_no_isolated(g: Graph, context: str) -> None:
    if has_isolated_vertex(g):
        raise HypothesisError(f"{context} requires a graph without isolated vertices"
                              f" ({g.name or 'input'} has one)")
