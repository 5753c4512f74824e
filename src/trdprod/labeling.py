"""{0,1,2} vertex labelings, role-tagged vertex sets, and their validity predicates.

Predicates are total: a set that fails its role test yields False rather than
an error. Only the no-isolated-vertices hypothesis (which makes total
domination satisfiable at all) raises.

verified is the one re-check of a labeling the package returns: every
solver witness and every product construction passes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, PreconditionError
from .graph import Graph, bits_of, mask_of, require_no_isolated
from . import graph6

ROLES = ("plain", "packing", "open_packing", "total_dominating", "efficient_open_dominating")


@dataclass(frozen=True)
class LabelFunction:
    """A {0,1,2} labeling of a graph; the partition into V0/V1/V2 is derived, never stored."""

    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.graph.n:
            raise PreconditionError(f"{len(self.labels)} labels for {self.graph.n} vertices")
        # one pass, since every witness comes through here; a bool or a float
        # equals an int label but is none
        for l in self.labels:
            if type(l) is not int or not 0 <= l <= 2:
                raise PreconditionError(f"labels must be the ints 0, 1 or 2, got {l!r}")

    @property
    def weight(self) -> int:
        return sum(self.labels)

    def vertices_with(self, value: int) -> tuple[int, ...]:
        return tuple(v for v, l in enumerate(self.labels) if l == value)

    @property
    def v0(self) -> tuple[int, ...]:
        return self.vertices_with(0)

    @property
    def v1(self) -> tuple[int, ...]:
        return self.vertices_with(1)

    @property
    def v2(self) -> tuple[int, ...]:
        return self.vertices_with(2)

    def mask(self, value: int) -> int:
        return mask_of(v for v, l in enumerate(self.labels) if l == value)

    @property
    def positive_mask(self) -> int:
        return mask_of(v for v, l in enumerate(self.labels) if l >= 1)

    def to_json_dict(self) -> dict:
        return {"graph": graph6.emit_graph6(self.graph), "labels": list(self.labels)}


@dataclass(frozen=True)
class VertexSet:
    """Vertex subset as a bitmask plus a role tag.

    Construction with a non-plain role re-checks the role predicate, so a
    tagged set is always trustworthy.
    """

    graph: Graph
    members: int
    role: str = "plain"

    def __post_init__(self):
        if self.role not in ROLES:
            raise PreconditionError(f"unknown role {self.role!r}")
        if self.members & ~((1 << self.graph.n) - 1):
            raise PreconditionError("member mask references vertices >= n")
        checker = _ROLE_CHECKS.get(self.role)
        if checker is not None and not checker(self):
            raise PreconditionError(f"set {self.vertices()} is not {self.role} "
                                    f"in {self.graph.name or 'graph'}")

    @classmethod
    def from_vertices(cls, graph: Graph, vertices, role: str = "plain") -> "VertexSet":
        return cls(graph, mask_of(vertices), role)

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.members))

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def to_json_dict(self) -> dict:
        return {"graph": graph6.emit_graph6(self.graph),
                "members": list(self.vertices()), "role": self.role}


def is_total_roman_dominating(f: LabelFunction) -> bool:
    """Roman domination plus: positive labels induce a subgraph without isolated vertices."""
    require_no_isolated(f.graph, "total Roman domination")
    adj = f.graph.adj
    # one pass over the labels builds the positive vertices and the unions
    # of the positive and the 2-labelled neighbourhoods; a positive vertex
    # must lie in the first union, and a 0 in the second
    pos = near_pos = near_two = 0
    for v, l in enumerate(f.labels):
        if l:
            pos |= 1 << v
            near_pos |= adj[v]
            if l == 2:
                near_two |= adj[v]
    return not pos & ~near_pos and not ((1 << f.graph.n) - 1) & ~pos & ~near_two


def is_packing(s: VertexSet) -> bool:
    """Pairwise disjoint closed neighborhoods."""
    adj = s.graph.adj
    used = 0
    for v in bits_of(s.members):
        closed = adj[v] | (1 << v)
        if used & closed:
            return False
        used |= closed
    return True


def is_open_packing(s: VertexSet) -> bool:
    """Pairwise disjoint open neighborhoods."""
    adj = s.graph.adj
    used = 0
    for v in bits_of(s.members):
        if used & adj[v]:
            return False
        used |= adj[v]
    return True


def is_total_dominating(s: VertexSet) -> bool:
    """Every vertex of the graph has a neighbor inside the set."""
    require_no_isolated(s.graph, "total domination")
    return all(s.graph.adj[v] & s.members for v in range(s.graph.n))


def is_efficient_open_dominating(s: VertexSet) -> bool:
    require_no_isolated(s.graph, "efficient open domination")
    return is_total_dominating(s) and is_open_packing(s)


def eod_by_unit_neighbor_count(s: VertexSet) -> bool:
    """Independent second characterization: every vertex has exactly one neighbor in the set."""
    require_no_isolated(s.graph, "efficient open domination")
    return all((s.graph.adj[v] & s.members).bit_count() == 1 for v in range(s.graph.n))


_ROLE_CHECKS = {
    "packing": is_packing,
    "open_packing": is_open_packing,
    "total_dominating": is_total_dominating,
    "efficient_open_dominating": is_efficient_open_dominating,
}


def verified(g: Graph, labels, weight: int, twos: int | None, message: str) -> LabelFunction:
    """labels as a LabelFunction of g, once it is total Roman dominating, weighs weight
    and has twos 2s (any number when twos is None); ConsistencyError(message) otherwise."""
    witness = LabelFunction(g, tuple(labels))
    if (not is_total_roman_dominating(witness) or witness.weight != weight
            or twos is not None and witness.labels.count(2) != twos):
        raise ConsistencyError(message)
    return witness


def trdf_from_total_dominating_set(d: VertexSet) -> LabelFunction:
    """All-2 labeling of a total dominating set; weight is twice the set size."""
    if not is_total_dominating(d):
        raise PreconditionError("input set is not total dominating")
    labels = tuple(2 if d.members >> v & 1 else 0 for v in range(d.graph.n))
    return verified(d.graph, labels, 2 * d.size, None,
                    "total-dominating-set labeling failed verification")
