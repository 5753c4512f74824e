"""Exact solvers: gamma_tR (branch-and-bound and brute force), gamma_t, the
packing numbers, the max-2s tie-broken variant, and weight/2-count frontiers.

Budgets are wall-clock seconds; running out raises SolverTimeout with the
best certified bounds rather than returning an approximation, and with the
nodes every search of the solve visited. The environment variable
TRD_BUDGET_SECS sets the default budget.

The optimality proof searches for a labeling lighter than a seed of weight
ub. On a vertex-transitive graph with ub <= n it searches only labelings
with a 2 at vertex 0. A labeling lighter than n is not all-positive, and a
vertex labeled 0 needs a 2-neighbour, so the labeling has a 2 at some v; an
automorphism sending 0 to v turns it into a valid labeling of the same
weight with a 2 at vertex 0.

Every search (the proof, each lexicographic probe, under either objective)
also applies an orbital rule below that root. A search still running after
its first chunk takes v, the fixed vertex that is not yet satisfied with
the fewest undecided neighbours, and asks whether automorphisms that keep
every fixed label carry all of v's undecided neighbours onto u0, the
lowest-index one. If v is a 0 with no fixed 2-neighbour, u0 is fixed to 2
and the rule repeats on the larger set; if v is positive with no positive
neighbour, the search splits into u0 = 2 and u0 = 1. The reduced searches
replace the running one, which is dropped; otherwise it resumes. This is
sound: every completion f puts a 2 (or a positive label) on some undecided
w in N(v), and an automorphism s with s(w) = u0 that keeps every fixed
label makes f composed with the inverse of s a completion with the same
weight and the same number of 2s, now with that label at u0. So
feasibility answers, optimal weights and best 2-counts stay the same, and
with them the lexicographically smallest witnesses, which the probes
rebuild from feasibility answers alone. When v's undecided neighbours fall
into several orbits the rule fixes nothing: fixing the earlier orbits to 0
would lose completions that put a 1 there. graph.in_one_orbit answers True
only with automorphisms in hand that it has checked edge by edge and
colour by colour, and a search too short to pass its first chunk runs no
automorphism search at all.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import _kernels
from .errors import ConsistencyError, SizeLimitError, SolverTimeout
from .graph import (Graph, bits_of, connected_components, in_one_orbit, induced_subgraph,
                    is_regular, mask_of, pair_table, require_no_isolated)
from .labeling import LabelFunction, VertexSet, is_total_roman_dominating

ORACLE_LIMIT = 12     # brute force scans 3^n labelings
SUBSET_LIMIT = 20     # subset enumeration for gamma_t / rho / rho_o
BUDGET_ENV = "TRD_BUDGET_SECS"

# A search reads the clock after its first _FIRST_CHUNK nodes, then about
# every _SLICE_S seconds; a budget is therefore kept within a slice or so.
_FIRST_CHUNK = 1 << 10
_SLICE_S = 0.02
# The oracle scan runs without a budget; it returns to Python once per chunk.
_SCAN_CHUNK = 1 << 20


def default_budget() -> float:
    return float(os.environ.get(BUDGET_ENV, "60"))


@dataclass(frozen=True)
class SolveResult:
    """Optimal invariant value plus a verified witness.

    method is one of brute_force, branch_and_bound, certificate. max_v2 is
    filled by the tie-broken solver variant that maximizes the 2-count.
    """

    invariant: str
    value: int
    witness: LabelFunction | VertexSet | None
    method: str
    tie_break_note: str = ""
    max_v2: int | None = None

    def to_json_dict(self) -> dict:
        out = {"invariant": self.invariant, "value": self.value, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.tie_break_note:
            out["tie_break_note"] = self.tie_break_note
        if self.max_v2 is not None:
            out["max_v2"] = self.max_v2
        return out


@dataclass(frozen=True)
class ParetoPoint:
    """For one labeling weight, the largest 2-count any valid labeling of that weight reaches."""

    weight: int
    max_v2: int


class _SearchGraph:
    """A graph plus what every search on it reads.

    One is built per component solve and shared by the proof, every lex
    probe and the max-2s pass. The kernels read bit and max_degree; the
    orbital rule reads pair (graph.pair_table), which is built on first
    use, so a solve whose searches all end within their first chunk never
    builds it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.bit = [1 << v for v in range(g.n)]
        self.max_degree = g.max_degree()

    @cached_property
    def pair(self) -> list[list[int]]:
        return pair_table(self.g)


class _SearchArrays:
    """One graph plus the mutable search state the kernels run on."""

    def __init__(self, sg: _SearchGraph, fixed: dict[int, int]):
        g = sg.g
        n = g.n
        adj = g.adj
        # Slot 0 of each mask stack holds the fixed labels; the kernels fill
        # slot d+1 when they decide order[d].
        cov = pos = decided = 0
        weight = twos = 0
        for v, lab in fixed.items():
            decided |= 1 << v
            weight += lab
            if lab:
                pos |= 1 << v
            if lab == 2:
                cov |= adj[v]
                twos += 1
        un0 = unp = 0
        for v, lab in fixed.items():
            if lab == 0 and not cov >> v & 1:
                un0 |= 1 << v
            elif lab and not adj[v] & pos:
                unp |= 1 << v
        und0 = ((1 << n) - 1) ^ decided
        # A fixed vertex unsatisfied with no undecided neighbour stays
        # unsatisfied. Such a probe is answered from init_dead alone, so the
        # lists below are not built for it.
        self.init_dead = any(not adj[v] & und0 for v in bits_of(un0 | unp))
        if self.init_dead:
            return
        labels = [-1] * n
        for v, lab in fixed.items():
            labels[v] = lab
        free = [v for v in range(n) if labels[v] < 0]
        k = len(free)
        # the kernels only read the adjacency masks and bit, so every
        # search on the graph shares them
        self.adj_mask = adj
        self.bit = sg.bit
        self.labels = labels
        self.order = free
        self.trial = [0] * (k + 1)
        self.cov = [cov] + [0] * k
        self.pos = [pos] + [0] * k
        self.un0 = [un0] + [0] * k
        self.unp = [unp] + [0] * k
        # order and und are stacks the kernel writes as it descends (see
        # _kernels); slot 0 lists every free vertex.
        self.und = [und0] + [0] * k
        self.best_labels = [-1] * n
        self.init_weight = weight
        self.init_v2 = twos
        self.max_degree = sg.max_degree

    def state(self, best: int, cap: int = 0, early: bool = False,
              mode: int = _kernels.MIN_WEIGHT):
        st = [0] * 12
        st[1] = self.init_weight
        st[2] = self.init_v2
        st[3] = best
        st[6] = len(self.order)
        st[8] = cap
        st[9] = 1 if early else 0
        st[10] = mode
        st[11] = self.max_degree
        return st

    def chunk(self, kernel, st, deadline: _Deadline, size: int) -> int:
        """Run kernel for at most size nodes and add them to deadline.nodes.

        Raises SolverTimeout when the search is still running past the
        deadline; in a min-weight search it carries the incumbent, which
        only ever drops to the weight of a valid labeling found.
        """
        before = st[4]
        status = kernel(self.adj_mask, self.labels, self.order, self.trial,
                        self.cov, self.pos, self.un0, self.unp, self.bit,
                        self.und, self.best_labels, st, size)
        deadline.nodes += st[4] - before
        if status == _kernels.RUNNING and time.monotonic() >= deadline.at:
            exc = SolverTimeout(f"search budget exhausted after {deadline.nodes} nodes",
                                nodes=deadline.nodes)
            if st[10] == _kernels.MIN_WEIGHT:
                exc.upper_bound = st[3]
            raise exc
        return status

    def run(self, kernel, st, deadline: _Deadline) -> int:
        """Run kernel to completion, reading the clock between chunks of nodes.

        Each chunk is sized from the rate of the one before so that it takes
        about _SLICE_S; the kernel resumes exactly, so chunking never changes
        the nodes visited.
        """
        size = _FIRST_CHUNK
        while True:
            t0 = time.monotonic()
            status = self.chunk(kernel, st, deadline, size)
            if status != _kernels.RUNNING:
                return status
            fit = int(size * _SLICE_S / max(time.monotonic() - t0, 1e-6))
            size = max(_FIRST_CHUNK, min(4 * size, fit))


class _Deadline:
    """One solve's wall-clock deadline, and the nodes its searches have visited.

    Every search of a solve (the proof, each lex probe, the max-2s pass, in
    every component) shares one, so a timeout reports the nodes of the
    whole solve, not only those of the search that ran out. A budget of
    None means the default budget, and one of 0 or less means no deadline.
    """

    def __init__(self, budget: float | None):
        if budget is None:
            budget = default_budget()
        self.at = time.monotonic() + budget if budget > 0 else math.inf
        self.nodes = 0


def trivial_lower_bound(g: Graph) -> int:
    """Cheap certified floor: ceil(2n/Delta) once Delta >= 2, n below that, and >= 3 once n >= 3.

    It is the kernels' Roman cover bound at the root. Every vertex is
    positive or has a 2-neighbour. A 1 serves only itself. A 2 serves its
    closed neighbourhood, but one neighbour must be positive and so serves
    itself, which leaves at most Delta vertices served per 2. The floor is
    never below ceil(2n/(Delta+1)), the Roman domination floor.
    """
    delta = g.max_degree()
    lb = -(-2 * g.n // delta) if delta >= 2 else g.n
    return max(lb, 3 if g.n >= 3 else 2)


def greedy_total_dominating_set(g: Graph) -> VertexSet:
    """Deterministic max-coverage greedy; used only to seed upper bounds."""
    require_no_isolated(g, "total domination")
    undominated = (1 << g.n) - 1
    members = 0
    while undominated:
        best_v, best_gain = -1, -1
        for v in range(g.n):
            if members >> v & 1:
                continue
            gain = (g.adj[v] & undominated).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        members |= 1 << best_v
        undominated &= ~g.adj[best_v]
    return VertexSet(g, members, "total_dominating")


def _min_weight_search(sg: _SearchGraph, fixed: dict[int, int], init_best: int,
                       early: bool, deadline: _Deadline | None):
    """Lightest completion of fixed below init_best.

    Returns (found, best, labels_or_None); found means strictly below
    init_best. With early, the first such completion ends the search.

    Not every completion is searched. Past its first chunk, the search
    applies the orbital rule of the module docstring: when automorphisms
    that keep every fixed label carry all undecided neighbours of an
    unsatisfied fixed vertex onto one of them, u0, it searches only
    completions with a 2 at u0 (for a 0) or a positive label there. Any
    completion maps onto such a one of the same weight, so found and best
    are those of a search over every completion; labels is some completion
    of weight best.
    """
    return _search(sg, fixed, _kernels.MIN_WEIGHT, init_best, 0, early, deadline)


def _max_twos_search(sg: _SearchGraph, fixed: dict[int, int], cap: int, init_best: int,
                     early: bool, deadline: _Deadline | None):
    """Max 2-count among valid labelings of weight exactly cap, over completions of fixed.

    Returns (found, best, labels_or_None); found means a 2-count above
    init_best. With early, the first such completion ends the search. As in
    _min_weight_search, the orbital rule searches only completions with a
    2 or a positive label at u0; the automorphism that maps a completion
    onto one of them keeps its weight and its 2-count, so found and best
    are those of a search over every completion.
    """
    return _search(sg, fixed, _kernels.MAX_TWOS, init_best, cap, early, deadline)


def _search(sg: _SearchGraph, fixed: dict[int, int], mode: int, best: int, cap: int,
            early: bool, deadline: _Deadline | None):
    """One search in the given mode, from incumbent best; returns (found, best, labels).

    A search still running after its first chunk asks _orbital_fix for
    reduced fixed sets. When there are some, the search is dropped, keeping
    any incumbent it found, and each reduced set is searched in turn (by
    this function, so the rule can apply again) from the incumbent so far;
    an early search stops at the first that finds one. Otherwise the same
    search resumes.
    """
    if deadline is None:  # a search outside any solve: no budget, no total
        deadline = _Deadline(0)
    arrs = _SearchArrays(sg, fixed)
    if arrs.init_dead:
        return False, best, None
    kernel = _kernels.bnb_min_weight if mode == _kernels.MIN_WEIGHT else _kernels.bnb_max_twos
    st = arrs.state(best=best, cap=cap, early=early, mode=mode)
    if arrs.chunk(kernel, st, deadline, _FIRST_CHUNK) == _kernels.RUNNING:
        parts = _orbital_fix(sg, fixed)
        if parts:
            found = bool(st[7])
            labels = tuple(arrs.best_labels) if found else None
            best = st[3]
            for part in parts:
                ok, best, part_labels = _search(sg, part, mode, best, cap, early, deadline)
                if ok:
                    found, labels = True, part_labels
                    if early:
                        break
            return found, best, labels
        arrs.run(kernel, st, deadline)
    found = bool(st[7])
    return found, st[3], tuple(arrs.best_labels) if found else None


def _orbital_fix(sg: _SearchGraph, fixed: dict[int, int]) -> list[dict[int, int]]:
    """The fixed sets whose searches replace the search of fixed, or [] for none.

    Takes v, the unsatisfied fixed vertex with the fewest undecided
    neighbours (lowest index on ties), and asks whether automorphisms that
    keep every fixed label carry all of v's undecided neighbours onto u0,
    the lowest-index one. If so, a 0 at v gets u0 = 2 and the rule repeats
    on the larger set; a positive v gives the two sets with u0 = 2 and
    u0 = 1. The module docstring gives the argument.
    """
    g = sg.g
    adj = g.adj
    out = dict(fixed)
    while True:
        pos = cov = 0
        for v, lab in out.items():
            if lab:
                pos |= 1 << v
            if lab == 2:
                cov |= adj[v]
        und = ((1 << g.n) - 1) & ~mask_of(out)
        tight = -1
        fewest = g.n + 1
        for v in sorted(out):
            satisfied = cov >> v & 1 if out[v] == 0 else adj[v] & pos
            if not satisfied:
                c = (adj[v] & und).bit_count()
                if c < fewest:
                    tight, fewest = v, c
        if tight < 0 or fewest == 0:
            break
        nbrs = bits_of(adj[tight] & und)
        colour = [out.get(v, -1) for v in range(g.n)]
        if len(nbrs) > 1 and not in_one_orbit(g, sg.pair, colour, nbrs):
            break
        if out[tight]:
            return [{**out, nbrs[0]: 2}, {**out, nbrs[0]: 1}]
        out[nbrs[0]] = 2
    return [out] if len(out) > len(fixed) else []


def _lex_smallest(g: Graph, feasible, seed: tuple[int, ...] | None) -> tuple[int, ...]:
    """Fix labels vertex by vertex, smallest first, keeping a known completion as witness.

    feasible(fixed) must return (ok, completion); completions are reused so a
    vertex whose cheapest label matches the cached witness costs nothing.
    """
    fixed: dict[int, int] = {}
    witness = list(seed) if seed is not None else None
    for v in range(g.n):
        for lab in (0, 1, 2):
            if witness is not None:
                if witness[v] == lab:
                    fixed[v] = lab
                    break
                if witness[v] < lab:
                    raise ConsistencyError("witness cache out of sync")
            ok, completion = feasible({**fixed, v: lab})
            if ok:
                fixed[v] = lab
                witness = list(completion)
                break
        else:
            raise ConsistencyError("no completion under proven-achievable constraints")
    return tuple(fixed[v] for v in range(g.n))


def _brute_scan(g: Graph, limit: int):
    """Full 3^n scan; returns (best weight, lex-first witness, per-weight max-2-count table)."""
    require_no_isolated(g, "gamma_tR")
    if g.n > limit:
        raise SizeLimitError(f"brute force oracle limited to {limit} vertices, got {g.n}")
    bit = [1 << v for v in range(g.n)]
    digits = [0] * g.n
    best_labels = [-1] * g.n
    table = [-1] * (2 * g.n + 1)
    st = [2 * g.n + 1, 0, 0, 0, 0, 0]
    while _kernels.brute_force_scan(g.adj, bit, digits, best_labels,
                                    table, st, _SCAN_CHUNK) != _kernels.DONE:
        pass
    return st[0], tuple(best_labels), table


def gamma_tr_bruteforce(g: Graph, limit: int = ORACLE_LIMIT) -> SolveResult:
    """Independent oracle: exhaustive scan of all 3^n labelings."""
    best, labels, _ = _brute_scan(g, limit)
    witness = LabelFunction(g, labels)
    if not is_total_roman_dominating(witness) or witness.weight != best:
        raise ConsistencyError("brute force witness failed validation")
    return SolveResult("gamma_tR", best, witness, "brute_force",
                       tie_break_note="lexicographically smallest optimal labeling")


def _gamma_tr_value(sg: _SearchGraph, deadline: _Deadline | None,
                    upper_bound_hint: int | None):
    """Optimal weight plus, when the search itself improved on the seeds, a witness.

    ub, the lighter of twice a greedy total dominating set and the hint, is
    a valid labeling's weight. When the trivial floor reaches it, it is the
    optimum and no search runs. Otherwise the proof searches for a labeling
    lighter than ub. When ub <= n and the graph is vertex-transitive, the
    proof searches only labelings with a 2 at vertex 0, which loses
    nothing: a labeling lighter than n has a 0 somewhere, so a 2 at some
    vertex v (the 0 needs a 2-neighbour), and composing it with an
    automorphism that sends 0 to v gives a valid labeling of the same
    weight with a 2 at vertex 0. The orbital rule (module docstring) can
    then reduce the proof further.
    """
    g = sg.g
    greedy = greedy_total_dominating_set(g)
    seed_labels = tuple(2 if greedy.members >> v & 1 else 0 for v in range(g.n))
    ub = 2 * greedy.size
    if upper_bound_hint is not None and upper_bound_hint < ub:
        ub = upper_bound_hint
        seed_labels = None
    floor = trivial_lower_bound(g)
    if floor >= ub:
        return ub, seed_labels
    transitive = (ub <= g.n and is_regular(g)
                  and in_one_orbit(g, sg.pair, [0] * g.n, range(g.n)))
    fixed = {0: 2} if transitive else {}
    try:
        found, value, labels = _min_weight_search(sg, fixed, ub, False, deadline)
    except SolverTimeout as exc:
        exc.lower_bound = floor
        raise
    if found:
        return value, labels
    return ub, seed_labels


def _solve_connected(g: Graph, deadline: _Deadline | None,
                     upper_bound_hint: int | None, max_twos: bool):
    """Optimal weight, best 2-count and witness labels, one component.

    The witness is the lexicographically smallest optimal labeling; with
    max_twos it is the smallest among those with the most 2s, and the
    2-count is their number of 2s (0 otherwise).
    """
    sg = _SearchGraph(g)
    value, seed = _gamma_tr_value(sg, deadline, upper_bound_hint)
    twos = 0

    def feasible(fixed):
        if max_twos:
            ok, _, labels = _max_twos_search(sg, fixed, value, twos - 1, True, deadline)
        else:
            ok, _, labels = _min_weight_search(sg, fixed, value + 1, True, deadline)
        return ok, labels

    try:
        if max_twos:
            found, twos, seed = _max_twos_search(sg, {}, value, -1, False, deadline)
            if not found:
                raise ConsistencyError("no labeling found at the proven optimal weight")
        labels = _lex_smallest(g, feasible, seed)
    except SolverTimeout as exc:
        exc.upper_bound = value
        exc.lower_bound = value  # value itself is proven; only the witness was pending
        raise
    return value, twos, labels


def _per_component(g: Graph, comps: list[list[int]], solver):
    """Run a per-component solver over comps, the connected components of g,
    and stitch; the objective and the lexicographic tie-break both decompose
    over components because label choices in different components never
    interact."""
    total = 0
    twos = 0
    stitched = [0] * g.n
    for idx, comp in enumerate(comps):
        sub = induced_subgraph(g, comp)
        try:
            value, v2, labels = solver(sub)
        except SolverTimeout as exc:
            # Solved components count exactly; a pending one is at least its
            # trivial floor and at most twice a greedy total dominating set.
            rest = [induced_subgraph(g, c) for c in comps[idx + 1:]]
            exc.lower_bound = (total + exc.lower_bound
                               + sum(trivial_lower_bound(r) for r in rest))
            exc.upper_bound = (total + exc.upper_bound
                               + sum(2 * greedy_total_dominating_set(r).size for r in rest))
            raise
        total += value
        twos += v2
        for i, orig in enumerate(comp):
            stitched[orig] = labels[i]
    return total, twos, tuple(stitched)


def _solve(g: Graph, budget: float | None, upper_bound_hint: int | None, max_twos: bool):
    """Value, 2-count and verified witness under one budget; see _solve_connected."""
    require_no_isolated(g, "gamma_tR")
    deadline = _Deadline(budget)
    comps = connected_components(g)
    if len(comps) == 1:
        value, twos, labels = _solve_connected(g, deadline, upper_bound_hint, max_twos)
    else:
        value, twos, labels = _per_component(
            g, comps, lambda sub: _solve_connected(sub, deadline, None, max_twos))
    witness = LabelFunction(g, labels)
    if (not is_total_roman_dominating(witness) or witness.weight != value
            or (max_twos and len(witness.v2) != twos)):
        raise ConsistencyError("branch-and-bound witness failed validation")
    return value, twos, witness


def gamma_tr_exact(g: Graph, budget: float | None = None,
                   upper_bound_hint: int | None = None) -> SolveResult:
    """Provably optimal gamma_tR by branch-and-bound.

    Disconnected graphs are solved component by component (the invariant is
    additive). upper_bound_hint, when given, must be the weight of a labeling
    already verified valid (e.g. a certified construction); it only tightens
    pruning. The returned witness is the lexicographically smallest optimal
    labeling.
    """
    value, _, witness = _solve(g, budget, upper_bound_hint, max_twos=False)
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="lexicographically smallest optimal labeling")


def gamma_tr_max_v2(g: Graph, budget: float | None = None,
                    upper_bound_hint: int | None = None) -> SolveResult:
    """gamma_tR plus the secondary objective: most 2-labels among optimal labelings."""
    value, twos, witness = _solve(g, budget, upper_bound_hint, max_twos=True)
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="maximum 2-count, then lexicographically smallest",
                       max_v2=twos)


def gamma_t_exact(g: Graph) -> SolveResult:
    """Smallest total dominating set by subset enumeration in increasing cardinality."""
    require_no_isolated(g, "total domination")
    if g.n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {g.n}")
    for k in range(1, g.n + 1):
        for comb in combinations(range(g.n), k):
            mask = mask_of(comb)
            if all(g.adj[v] & mask for v in range(g.n)):
                return SolveResult("gamma_t", k,
                                   VertexSet(g, mask, "total_dominating"), "brute_force")
    raise ConsistencyError("no total dominating set despite no isolated vertices")


def rho_exact(g: Graph) -> SolveResult:
    """Largest packing (pairwise disjoint closed neighborhoods)."""
    if g.n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return SolveResult("rho", 0, VertexSet(g, 0, "packing"), "brute_force")
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    dmin = min(g.degree(v) for v in range(g.n))
    for k in range(g.n // (dmin + 1), 0, -1):
        for comb in combinations(range(g.n), k):
            used = 0
            for v in comb:
                if used & closed[v]:
                    break
                used |= closed[v]
            else:
                return SolveResult("rho", k, VertexSet(g, mask_of(comb), "packing"),
                                   "brute_force")
    raise ConsistencyError("single vertices are always packings")


def _open_packings_of_size(g: Graph, k: int):
    for comb in combinations(range(g.n), k):
        used = 0
        for v in comb:
            if used & g.adj[v]:
                break
            used |= g.adj[v]
        else:
            yield mask_of(comb)


def rho_o_exact(g: Graph) -> SolveResult:
    """Largest open packing (pairwise disjoint open neighborhoods)."""
    if g.n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return SolveResult("rho_o", 0, VertexSet(g, 0, "open_packing"), "brute_force")
    dmin = min(g.degree(v) for v in range(g.n))
    kmax = g.n if dmin == 0 else g.n // dmin
    for k in range(min(kmax, g.n), 0, -1):
        for mask in _open_packings_of_size(g, k):
            return SolveResult("rho_o", k, VertexSet(g, mask, "open_packing"),
                               "brute_force")
    raise ConsistencyError("single vertices are always open packings")


def maximum_open_packings(g: Graph) -> list[VertexSet]:
    """Every open packing of maximum size; small graphs only."""
    k = rho_o_exact(g).value
    return [VertexSet(g, mask, "open_packing") for mask in _open_packings_of_size(g, k)]


def rho_o_set_inducing_perfect_matching(g: Graph) -> VertexSet | None:
    """A maximum open packing whose induced subgraph is a disjoint union of single edges.

    The hypothesis is existential over maximum open packings, so all of them
    are searched.
    """
    for s in maximum_open_packings(g):
        if all((g.adj[v] & s.members).bit_count() == 1 for v in s.vertices()):
            return s
    return None


def trdf_with_weight_max_v2(g: Graph, weight: int,
                            budget: float | None = None) -> LabelFunction | None:
    """Some valid labeling of the exact given weight maximizing the 2-count, or None."""
    require_no_isolated(g, "gamma_tR")
    deadline = _Deadline(budget)
    found, _, labels = _max_twos_search(_SearchGraph(g), {}, weight, -1, False, deadline)
    if not found:
        return None
    return LabelFunction(g, labels)


def trdf_pareto_frontier(g: Graph, weight_cap: int | None = None,
                         budget: float | None = None) -> list[ParetoPoint]:
    """For each achievable weight from gamma_tR up to the cap, the best 2-count.

    The default cap 2*gamma_t is always reachable (all-2 on a minimum total
    dominating set); pass a larger cap to explore further. No labeling weighs
    more than 2n, so no weight above that is searched.
    """
    require_no_isolated(g, "gamma_tR")
    deadline = _Deadline(budget)
    if weight_cap is None:
        weight_cap = 2 * gamma_t_exact(g).value
    sg = _SearchGraph(g)
    value, _ = _gamma_tr_value(sg, deadline, None)
    points = []
    for w in range(value, min(weight_cap, 2 * g.n) + 1):
        found, v2max, _ = _max_twos_search(sg, {}, w, -1, False, deadline)
        if found:
            points.append(ParetoPoint(w, v2max))
    return points
