"""Exact solvers: gamma_tR (branch-and-bound and brute force), gamma_t, the
packing numbers, the max-2s tie-broken variant, and the weight/2-count
frontier from gamma_tR to 2*gamma_t, a verified witness at each point.
rho, rho_o and the maximum open packings come from one subset enumeration,
_packings, given closed or open neighbourhoods.

Budgets are wall-clock seconds; running out raises SolverTimeout with the
best certified bounds rather than returning an approximation, and with the
nodes every search of the solve visited. A budget of None means
DEFAULT_BUDGET_S.

_solve is the one loop over connected components. Each is solved on its
own, as a vertex mask of one search graph on the whole graph: the mask is
the free set of the component's searches, labels keep their indices, and
no subgraph is built. Per component it runs the proof (_gamma_tr_value),
the max-2s pass when asked (_most_twos) and the lexicographic rebuild
(_lex_smallest), and it holds the solve's SolverTimeout handler, which
turns what each component has proven so far into bounds on the whole
graph. A frontier that runs out past its first point has proven gamma_tR,
and its timeout carries that value as both bounds.
Every search is one call of _search on a list of states, searched in turn
from the incumbent so far, and every witness returned passes
labeling.verified.

The optimality proof searches for a labeling lighter than a seed of weight
ub. On a vertex-transitive component of n vertices with ub <= n it
searches only labelings with a 2 at r, the component's lowest vertex. A
labeling lighter than n is not all-positive, and a vertex labeled 0 needs a
2-neighbour, so the labeling has a 2 at some v; an automorphism sending r
to v turns it into a valid labeling of the same weight with a 2 at r. That
root goes through the orbital rule below before its first node.

Fixed labels only ever take one form, a state: the masks of the kernels'
slot 0 and the label list. _fix extends a state by one label with the
kernels' child rule, and is the one Python copy of that rule; every state
grows from _SearchGraph.root, the state of no fixed label, through _fix. The
lexicographic witness rebuild extends the state of its prefix by one label
per probe, and answers two kinds of probe without a search: one whose new
label leaves a vertex unsatisfied with no undecided neighbour (_fix), and
one whose new 0 leaves an undecided neighbour with no label it can take,
having no undecided and no positive neighbour left (_strands, a look-ahead
of one vertex that the probes run and the kernels do not). Every other
probe asks one question under MAX_TWOS: is there a completion of weight
exactly the optimum with at least the best 2-count (0 when 2s are not
counted)?

No max-2s search that a solve or a frontier runs starts without an
incumbent: both go through _most_twos, which searches from the 2-count of
a labeling in hand of the weight it searches, keeps that labeling when
nothing beats it, and runs no search when it already has weight // 2 twos,
the most a labeling of that weight can have. The max-2s pass of a solve
starts from the proof's witness. The frontier's first point is the max-2s
solve, and each later weight starts from the previous point's witness with
a 1 raised to 2. The greedy seed breaks gain ties toward the highest
index, where the lexicographically first optimum puts its 2s, so fewer
probes succeed in moving them. Each incumbent is at most the 2-count of a
real labeling and the lexicographic witness is unique, so values, 2-counts
and witnesses are those of searches that start from none.

Every search (the proof, the max-2s pass and each lexicographic probe)
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
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import _kernels
from .errors import ConsistencyError, PreconditionError, SizeLimitError, SolverTimeout
from .graph import (Graph, bits_of, connected_components, in_one_orbit, mask_of, pair_table,
                    require_no_isolated)
from .labeling import LabelFunction, VertexSet, verified

ORACLE_LIMIT = 12     # brute force scans 3^n labelings
SUBSET_LIMIT = 20     # subset enumeration for gamma_t / rho / rho_o
DEFAULT_BUDGET_S = 60.0

# A search reads the clock after its first _FIRST_CHUNK nodes, then about
# every _SLICE_S seconds; a budget is therefore kept within a slice or so.
_FIRST_CHUNK = 1 << 10
_SLICE_S = 0.02


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
    """For one labeling weight, the largest 2-count any valid labeling of that
    weight reaches, and a verified labeling of that weight with that many 2s."""

    weight: int
    max_v2: int
    witness: LabelFunction


class _SearchGraph:
    """A graph, the free vertex set of its searches, and what every search reads.

    free is a vertex mask: every vertex, or one connected component, whose
    searches then run on g itself with every label at its own index. One
    is built per component and shared by the proof, the max-2s pass and
    every lex probe. verts lists free in increasing order, for every walk
    over the free vertices, and floor is the free set's trivial floor. The
    kernels read bit and max_degree, the largest degree in free. The
    vertex-transitivity test of a regular component's proof and the orbital
    rule read pair (graph.pair_table of g), which is built on first use.
    The search graphs of a solve's components share bit and pair through
    shared, the first of them, so a solve that runs neither the test nor
    the rule never builds pair and one that does builds it once. root is
    the state (see _fix) of no fixed label, from which every search's state
    grows.
    """

    def __init__(self, g: Graph, free: int | None = None, shared: _SearchGraph | None = None):
        self.g = g
        self._shared = shared
        self.free = (1 << g.n) - 1 if free is None else free
        self.verts = bits_of(self.free)
        self.bit = shared.bit if shared is not None else [1 << v for v in range(g.n)]
        self.max_degree = max((g.adj[v].bit_count() for v in self.verts), default=0)
        self.floor = _floor(len(self.verts), self.max_degree)
        self.root = (0, 0, 0, 0, 0, 0, self.free, [-1] * g.n)

    @cached_property
    def pair(self) -> list[list[int]]:
        return self._shared.pair if self._shared is not None else pair_table(self.g)


class _Deadline:
    """One solve's wall-clock deadline, and the nodes its searches have visited.

    Every search of a solve (the proof, each lex probe, the max-2s pass, in
    every component) shares one, so a timeout reports the nodes of the
    whole solve, not only those of the search that ran out. A budget of
    None means DEFAULT_BUDGET_S, and one of 0 or less means no deadline.
    """

    def __init__(self, budget: float | None):
        if budget is None:
            budget = DEFAULT_BUDGET_S
        if math.isnan(budget):
            raise PreconditionError("a budget must be a number of seconds, not NaN")
        self.at = time.monotonic() + budget if budget > 0 else math.inf
        self.nodes = 0


def trivial_lower_bound(g: Graph) -> int:
    """Cheap certified floor: ceil(2n/Delta) once Delta >= 2, else n; never below min(n, 3).

    It is the kernels' Roman cover bound at the root. Every vertex is
    positive or has a 2-neighbour. A 1 serves only itself. A 2 serves its
    closed neighbourhood, but one neighbour must be positive and so serves
    itself, which leaves at most Delta vertices served per 2. The floor is
    never below ceil(2n/(Delta+1)), the Roman domination floor.
    """
    return _floor(g.n, g.max_degree())


def _floor(n: int, delta: int) -> int:
    """trivial_lower_bound of a graph or component of n vertices and largest degree delta."""
    lb = -(-2 * n // delta) if delta >= 2 else n
    return max(lb, min(n, 3))


def greedy_total_dominating_set(g: Graph) -> VertexSet:
    """Deterministic max-coverage greedy; used only to seed upper bounds.

    Gain ties break toward the highest index: the lexicographically first
    optimum puts its 0s at the low indices, so a seed with its 2s at the
    high ones leaves the lexicographic rebuild less to move.
    """
    require_no_isolated(g, "total domination")
    undominated = (1 << g.n) - 1
    members = 0
    while undominated:
        best_v, best_gain = -1, -1
        for v in range(g.n):
            if members >> v & 1:
                continue
            gain = (g.adj[v] & undominated).bit_count()
            if gain >= best_gain:
                best_v, best_gain = v, gain
        members |= 1 << best_v
        undominated &= ~g.adj[best_v]
    return VertexSet(g, members, "total_dominating")


def _fix(adj, state, v: int, lab: int):
    """A new state: state with the undecided v labeled lab by the kernels'
    child rule, or None when v or a neighbour is left unsatisfied with no
    undecided neighbour, which no further label mends.

    A state is (weight, 2-count, cov, pos, un0, unp, und, labels), the
    kernels' slot 0 (see _kernels) with -1 for an undecided label; it is
    never changed in place. A vertex outside the free set of the searches
    from it keeps the label -1 throughout.
    """
    weight, twos, cov, pos, un0, unp, und, labels = state
    vb = 1 << v
    nv = adj[v]
    und ^= vb
    if lab == 0:
        if not cov & vb:
            un0 |= vb
    else:
        if not nv & pos:
            unp |= vb
        unp &= ~nv
        pos |= vb
        if lab == 2:
            un0 &= ~nv
            cov |= nv
            twos += 1
    r = (un0 | unp) & (nv | vb)
    while r:
        low = r & -r
        if not adj[low.bit_length() - 1] & und:
            return None
        r ^= low
    labels = labels[:]
    labels[v] = lab
    return weight + lab, twos, cov, pos, un0, unp, und, labels


def _search(sg: _SearchGraph, parts: list, mode: int, best: int, cap: int, early: bool,
            deadline: _Deadline):
    """The best completion of any of parts, a list of fixed-label states, from incumbent best.

    Returns (found, best, labels_or_None). With mode MIN_WEIGHT, found means
    a completion lighter than the incumbent, and best is the lightest
    weight. With MAX_TWOS, it means a completion of weight exactly cap with
    more 2s than the incumbent, and best is the largest 2-count. The states
    are searched in turn, each from the incumbent so far; with early, the
    first completion found ends the whole search. A state of None (see
    _fix) has no completion, and its search visits no node.

    The kernel runs in chunks of nodes, and the clock is read after each;
    a search that runs out raises SolverTimeout, carrying the proof's
    incumbent under MIN_WEIGHT. A state's search still running after its
    first chunk of _FIRST_CHUNK nodes asks _orbital_fix for reduced states
    of it. When there are some, that search is dropped, keeping any
    incumbent it found, and the reduced states are searched by this
    function, so the rule can apply again. Any completion maps onto one of
    theirs with the same weight and 2-count (module docstring), so found
    and best are those of a search over every completion; labels is some
    completion that reaches best. Otherwise the same search resumes in
    chunks sized to take about _SLICE_S each; the kernel resumes exactly, so
    chunking never changes the nodes visited.
    """
    adj = sg.g.adj
    kernel = _kernels.bnb_min_weight if mode == _kernels.MIN_WEIGHT else _kernels.bnb_max_twos
    found, witness = False, None
    for state in parts:
        if state is None:
            continue
        weight, twos, cov, pos, un0, unp, und, fixed_labels = state
        labels = fixed_labels[:]
        # Slot 0 of each per-depth stack holds the state's masks, and order
        # lists every free vertex; the kernel writes the deeper slots and
        # reorders order as it descends.
        order = bits_of(und)
        k = len(order)
        rest = [0] * k
        trial = [0] * (k + 1)
        covs, poss, un0s, unps, unds = ([cov] + rest, [pos] + rest, [un0] + rest,
                                        [unp] + rest, [und] + rest)
        best_labels = [-1] * len(labels)
        st = [0, weight, twos, best, 0, 0, k, 0, cap, int(early), mode, sg.max_degree]
        size = _FIRST_CHUNK
        split = None
        while True:
            t0 = time.monotonic()
            before = st[4]
            status = kernel(adj, labels, order, trial, covs, poss, un0s, unps, sg.bit, unds,
                            best_labels, st, size)
            deadline.nodes += st[4] - before
            if status != _kernels.RUNNING:
                break
            t1 = time.monotonic()
            if t1 >= deadline.at:
                # the incumbent only ever drops to the weight of a valid labeling
                raise SolverTimeout(f"search budget exhausted after {deadline.nodes} nodes",
                                    upper_bound=st[3] if mode == _kernels.MIN_WEIGHT else None,
                                    nodes=deadline.nodes)
            if split is None:
                split = _orbital_fix(sg, state)
                if split:
                    break
            fit = int(size * _SLICE_S / max(t1 - t0, 1e-6))
            size = max(_FIRST_CHUNK, min(4 * size, fit))
        best = st[3]
        if st[7]:
            found, witness = True, tuple(best_labels)
        if split:
            ok, best, split_labels = _search(sg, split, mode, best, cap, early, deadline)
            if ok:
                found, witness = True, split_labels
        if found and early:
            break
    return found, best, witness


def _orbital_fix(sg: _SearchGraph, state) -> list:
    """The states whose searches replace the search of state, or [] for none.

    Takes v, the unsatisfied fixed vertex of state with the fewest undecided
    neighbours (lowest index on ties), and asks whether automorphisms that
    keep every fixed label carry all of v's undecided neighbours onto u0,
    the lowest-index one. If so, a 0 at v gets u0 = 2 and the rule repeats
    on the extended state; a positive v gives the two states with u0 = 2
    and u0 = 1. A state may come back as None, which _fix found dead. The
    module docstring gives the argument.
    """
    g = sg.g
    adj = g.adj
    out = state
    while out is not None:
        *_, un0, unp, und, colour = out
        tight = -1
        fewest = g.n + 1
        for v in bits_of(un0 | unp):
            c = (adj[v] & und).bit_count()
            if c < fewest:
                tight, fewest = v, c
        if tight < 0:
            break
        nbrs = bits_of(adj[tight] & und)
        if len(nbrs) > 1 and not in_one_orbit(g, sg.pair, colour, nbrs):
            break
        if colour[tight]:
            return [_fix(adj, out, nbrs[0], 2), _fix(adj, out, nbrs[0], 1)]
        out = _fix(adj, out, nbrs[0], 2)
    return [] if out is state else [out]


def _strands(adj, state, v: int) -> bool:
    """Whether the 0 that state has just fixed at v leaves a neighbour no label satisfies.

    That neighbour u is undecided, outside cov, and has no undecided and no
    positive neighbour left, so no 2-neighbour either: a 0 at u would lack
    a 2-neighbour and a positive u a positive neighbour, in every
    completion. A positive v is itself a positive neighbour, so only a 0
    can strand u. _fix stays the exact copy of the kernels' child rule;
    this test runs on the lexicographic probes only.
    """
    _, _, cov, pos, _, _, und, _ = state
    r = adj[v] & und & ~cov
    while r:
        low = r & -r
        if not adj[low.bit_length() - 1] & (und | pos):
            return True
        r ^= low
    return False


def _lex_smallest(sg: _SearchGraph, value: int, twos: int, seed: tuple[int, ...],
                  deadline: _Deadline) -> tuple[int, ...]:
    """The lexicographically smallest optimal labeling of sg's free set with at least twos 2s.

    value is the optimal weight, and twos the most 2s a labeling of that
    weight has, or 0 to allow any count. seed is a labeling that qualifies,
    and it and each completion found are kept as the witness. Labels are
    fixed vertex by vertex: each label below the witness's is probed,
    smallest first, and the witness's own label is fixed when none has a
    completion, so a vertex whose cheapest label matches it costs nothing.
    Each probe extends the state of the labels fixed so far by one label;
    _fix answers a dead one, _strands a 0 that leaves a neighbour with no
    label to take, and _search under MAX_TWOS any other. Labels outside
    sg.free come back as -1.
    """
    adj = sg.g.adj
    state = sg.root
    witness = seed
    for v in sg.verts:
        for lab in range(witness[v]):
            child = _fix(adj, state, v, lab)
            if child is None or lab == 0 and _strands(adj, child, v):
                continue
            ok, _, completion = _search(sg, [child], _kernels.MAX_TWOS, twos - 1, value, True,
                                        deadline)
            if ok:
                state, witness = child, completion
                break
        else:
            state = _fix(adj, state, v, witness[v])
            if state is None:
                raise ConsistencyError("the witness does not complete the fixed labels")
    return tuple(state[7])


def _brute_scan(g: Graph):
    """Full 3^n scan; returns (best weight, lex-first witness, per-weight max-2-count table)."""
    require_no_isolated(g, "gamma_tR")
    if g.n > ORACLE_LIMIT:
        raise SizeLimitError(f"brute force oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    bit = [1 << v for v in range(g.n)]
    digits = [0] * g.n
    best_labels = [-1] * g.n
    table = [-1] * (2 * g.n + 1)
    st = [2 * g.n + 1, 0, 0, 0, 0, 0]
    # one call with a budget of every labeling runs the scan to its end
    status = _kernels.brute_force_scan(g.adj, bit, digits, best_labels, table, st, 3 ** g.n)
    if status != _kernels.DONE:
        raise ConsistencyError("brute force scan stopped before its last labeling")
    return st[0], tuple(best_labels), table


def gamma_tr_bruteforce(g: Graph) -> SolveResult:
    """Independent oracle: exhaustive scan of all 3^n labelings."""
    best, labels, _ = _brute_scan(g)
    witness = verified(g, labels, best, None, "brute force witness failed validation")
    return SolveResult("gamma_tR", best, witness, "brute_force",
                       tie_break_note="lexicographically smallest optimal labeling")


def _gamma_tr_value(sg: _SearchGraph, seed: int, deadline: _Deadline):
    """Optimal weight of sg's free set plus a witness of that weight.

    seed is a greedy total dominating set of the whole graph as a mask, and
    its restriction to the free set is that component's own greedy set: the
    gains of its vertices depend only on their component, and ties break by
    index either way. ub, twice that set's size, is the weight of the
    labeling with a 2 on each of its vertices, which is the witness unless
    the search finds a lighter one. When the trivial floor of the free set
    reaches ub, it is the optimum and no search runs. Otherwise the proof
    searches for a labeling lighter than ub. When ub <= |free| and the
    component is vertex-transitive, the proof searches only labelings with a
    2 at r, its lowest vertex, which loses nothing: a labeling lighter than
    |free| has a 0 somewhere, so a 2 at some vertex v (the 0 needs a
    2-neighbour), and composing it with an automorphism that sends r to v
    gives a valid labeling of the same weight with a 2 at r. That root goes
    through the orbital rule (module docstring) before any node is searched.
    """
    g = sg.g
    seed &= sg.free
    seed_labels = tuple(2 if seed >> v & 1 else 0 for v in range(g.n))
    ub = 2 * seed.bit_count()
    if sg.floor >= ub:
        return ub, seed_labels
    parts = [sg.root]
    comp = sg.verts
    if (ub <= len(comp) and all(g.adj[v].bit_count() == sg.max_degree for v in comp)
            and in_one_orbit(g, sg.pair, [0] * g.n, comp)):
        root = _fix(g.adj, sg.root, comp[0], 2)
        parts = _orbital_fix(sg, root) or [root]
    found, value, labels = _search(sg, parts, _kernels.MIN_WEIGHT, ub, 0, False, deadline)
    return (value, labels) if found else (ub, seed_labels)


def _most_twos(sg: _SearchGraph, weight: int, labels, deadline: _Deadline):
    """The most 2s a labeling of sg's free set of this weight has, and one that has them.

    labels is a valid labeling of that weight, in hand: the search starts
    from its 2-count and keeps it when nothing beats it, so it always ends
    with a labeling. No search runs when labels already has weight // 2
    twos, the most a labeling of that weight can have.
    """
    twos = sum(labels[v] == 2 for v in sg.verts)
    if twos < weight // 2:
        found, twos, better = _search(sg, [sg.root], _kernels.MAX_TWOS, twos, weight, False,
                                      deadline)
        if found:
            labels = better
    return twos, labels


def _solve(g: Graph, deadline: _Deadline, max_twos: bool):
    """Optimal weight, best 2-count and verified witness of g under one deadline.

    Each connected component is solved on its own, as a vertex mask that
    is the free set of one search graph on g, so its labels sit at their
    own indices and the stitch is a plain copy. The objective and the
    lexicographic tie-break both decompose over components because label
    choices in different components never interact. One greedy total
    dominating set of g seeds every component (see _gamma_tr_value). A
    component's witness is its lexicographically smallest optimal labeling;
    with max_twos it is the smallest among those with the most 2s (see
    _most_twos, from the proof's witness), and the 2-count is their number
    of 2s (0 otherwise).

    A timeout carries certified bounds on the whole graph. Solved
    components count exactly. The one that ran out counts from its floor to
    the proof's incumbent while its proof runs, and its proven value twice
    once only its witness is pending. Each pending one counts from its
    floor to twice its greedy seed.
    """
    require_no_isolated(g, "gamma_tR")
    sgs = []
    for comp in connected_components(g):
        sgs.append(_SearchGraph(g, comp, sgs[0] if sgs else None))
    seed = greedy_total_dominating_set(g).members
    value = twos = 0
    labels = [0] * g.n
    for idx, sg in enumerate(sgs):
        sub_value = None
        try:
            sub_value, sub_labels = _gamma_tr_value(sg, seed, deadline)
            sub_twos = 0
            if max_twos:
                sub_twos, sub_labels = _most_twos(sg, sub_value, sub_labels, deadline)
            sub_labels = _lex_smallest(sg, sub_value, sub_twos, sub_labels, deadline)
        except SolverTimeout as exc:
            low, high = ((sg.floor, exc.upper_bound) if sub_value is None
                         else (sub_value, sub_value))
            rest = sgs[idx + 1:]
            exc.lower_bound = value + low + sum(r.floor for r in rest)
            exc.upper_bound = value + high + sum(2 * (seed & r.free).bit_count() for r in rest)
            raise
        value += sub_value
        twos += sub_twos
        for v in sg.verts:
            labels[v] = sub_labels[v]
    witness = verified(g, labels, value, twos if max_twos else None,
                       "branch-and-bound witness failed validation")
    return value, twos, witness


def gamma_tr_exact(g: Graph, budget: float | None = None) -> SolveResult:
    """Provably optimal gamma_tR by branch-and-bound.

    Disconnected graphs are solved component by component (the invariant is
    additive). Each search starts from the solve's own greedy seed. The
    returned witness is the lexicographically smallest optimal labeling.
    """
    value, _, witness = _solve(g, _Deadline(budget), max_twos=False)
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="lexicographically smallest optimal labeling")


def gamma_tr_max_v2(g: Graph, budget: float | None = None) -> SolveResult:
    """gamma_tR plus the secondary objective: most 2-labels among optimal labelings."""
    value, twos, witness = _solve(g, _Deadline(budget), max_twos=True)
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="maximum 2-count, then lexicographically smallest",
                       max_v2=twos)


def gamma_t_exact(g: Graph) -> SolveResult:
    """Smallest total dominating set by subset enumeration in increasing cardinality.

    Every vertex has a neighbour in a total dominating set S, so the degrees
    over S sum to at least n and |S| >= ceil(n/Delta); smaller sizes are not
    tried. The first set found is the lexicographically first smallest one.
    """
    require_no_isolated(g, "total domination")
    if g.n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {g.n}")
    for k in range(-(-g.n // max(1, g.max_degree())), g.n + 1):
        for comb in combinations(range(g.n), k):
            mask = mask_of(comb)
            if all(g.adj[v] & mask for v in range(g.n)):
                return SolveResult("gamma_t", k,
                                   VertexSet(g, mask, "total_dominating"), "brute_force")
    raise ConsistencyError("no total dominating set despite no isolated vertices")


def _packings(nbhd: tuple[int, ...], k: int):
    """The k-sets whose nbhd masks are pairwise disjoint, as masks, in lexicographic order."""
    for comb in combinations(range(len(nbhd)), k):
        used = 0
        for v in comb:
            if used & nbhd[v]:
                break
            used |= nbhd[v]
        else:
            yield mask_of(comb)


def _largest_packing(nbhd: tuple[int, ...]) -> tuple[int, int]:
    """Size and lexicographically first mask of a largest packing under nbhd.

    Sizes are tried from the largest down: k pairwise disjoint masks of at
    least m vertices each fit in n vertices only when k*m <= n.
    """
    n = len(nbhd)
    if n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {n}")
    kmax = n // max(1, min((m.bit_count() for m in nbhd), default=1))
    for k in range(kmax, 0, -1):
        for mask in _packings(nbhd, k):
            return k, mask
    return 0, 0  # the empty graph; any other has a one-vertex packing


def rho_exact(g: Graph) -> SolveResult:
    """Largest packing (pairwise disjoint closed neighborhoods)."""
    k, mask = _largest_packing(tuple(g.adj[v] | 1 << v for v in range(g.n)))
    return SolveResult("rho", k, VertexSet(g, mask, "packing"), "brute_force")


def rho_o_exact(g: Graph) -> SolveResult:
    """Largest open packing (pairwise disjoint open neighborhoods)."""
    k, mask = _largest_packing(g.adj)
    return SolveResult("rho_o", k, VertexSet(g, mask, "open_packing"), "brute_force")


def maximum_open_packings(g: Graph) -> list[VertexSet]:
    """Every open packing of maximum size, in lexicographic order; small graphs only."""
    k = rho_o_exact(g).value
    return [VertexSet(g, mask, "open_packing") for mask in _packings(g.adj, k)]


def rho_o_set_inducing_perfect_matching(g: Graph) -> VertexSet | None:
    """A maximum open packing whose induced subgraph is a disjoint union of single edges.

    The hypothesis is existential over maximum open packings, so all of them
    are searched.
    """
    for s in maximum_open_packings(g):
        if all((g.adj[v] & s.members).bit_count() == 1 for v in s.vertices()):
            return s
    return None


def trdf_pareto_frontier(g: Graph, budget: float | None = None) -> list[ParetoPoint]:
    """For each weight from gamma_tR to 2*gamma_t, the best 2-count and a verified witness.

    The first point is the max-2s solve: gamma_tr_max_v2's value, 2-count
    and witness. The frontier goes on only while the previous witness
    weighs more than twice its 2-count, so it has a 1, and raising its first
    1 to 2 gives a labeling of the next weight w with one more 2. _most_twos
    starts from that labeling, so it looks only for labelings with more 2s
    still, and runs no search when it already has w // 2 twos. Every
    witness is re-verified, and every point shares one deadline. A timeout
    past the first point carries that point's weight, the proven gamma_tR,
    as both bounds.

    The frontier stops at the first weight w whose best labeling has
    w // 2 twos, so no 1: its 2s totally dominate, so w is 2*gamma_t. Past
    it the best 2-count at weight w is w // 2, the most any labeling of
    that weight has: the 2s of a minimum total dominating set plus
    w // 2 - gamma_t other vertices still totally dominate, and for odd w a
    1 on one more vertex keeps the labeling valid. So no subset search runs.
    """
    deadline = _Deadline(budget)
    weight, twos, witness = _solve(g, deadline, max_twos=True)
    points = [ParetoPoint(weight, twos, witness)]
    sg = _SearchGraph(g)
    try:
        while weight > 2 * twos:
            weight += 1
            labels = list(witness.labels)
            labels[labels.index(1)] = 2
            twos, labels = _most_twos(sg, weight, labels, deadline)
            witness = verified(g, labels, weight, twos,
                               f"no verified frontier witness at weight {weight}")
            points.append(ParetoPoint(weight, twos, witness))
    except SolverTimeout as exc:
        exc.lower_bound = exc.upper_bound = points[0].weight
        raise
    return points
