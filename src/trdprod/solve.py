"""Exact solvers: gamma_tR (branch-and-bound and brute force), gamma_t, the
packing numbers, the max-2s tie-broken variant, and the weight/2-count
frontier from gamma_tR to 2*gamma_t, a verified witness at each point.
gamma_t, rho, rho_o, the open packing that induces a matching, and
classify's EOD set come from one subset enumeration, _first_sets, given
neighbourhoods, an order of sizes, and whether the sets must be disjoint,
covering, or both.

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

The root policy, _SearchGraph.parts(w), picks the states that every proof
and max-2s search for labelings of weight at most w starts from. On a
vertex-transitive component of n vertices with w < n, it is the state of a
2 at r, the component's lowest vertex. A labeling lighter than n is not
all-positive, and a vertex labeled 0 needs a 2-neighbour, so the labeling
has a 2 at some v; an automorphism sending r to v turns it into a valid
labeling of the same weight and 2-count with a 2 at r.

Lighter labelings have a sharper form. Lemma: on a Delta-regular
component of n vertices, a labeling of weight w < n with
(Delta - 1) w < 2n has a rich 2, a 2 whose neighbours are all 0 but one,
which is positive. Proof: with n0 zeros and n2 twos, n0 - n2 = n - w > 0
and n2 <= w/2. Each 0 has a 2-neighbour, so the 2s have at least n0 zero
neighbours between them, and some 2 has at least n0/n2 = 1 + (n - w)/n2
>= 2n/w - 1 > Delta - 2 of them. That is Delta - 1, and its last neighbour
is positive, as every positive vertex has a positive neighbour. The
window is the weights the lemma covers, up to _SearchGraph.window =
min(n - 1, (2n - 1) // (Delta - 1)). On a vertex-transitive component an
automorphism moves the rich 2 to r, and one that fixes r moves its
positive neighbour to p, the lowest vertex of that neighbour's orbit under
the automorphisms fixing r. So every labeling of weight in the window has
an image of the same weight and 2-count in one of the star parts
(_SearchGraph.star), two per orbit of N(r): r labeled 2, p labeled 1 or 2,
and every other neighbour of r labeled 0. So parts(w) is the star parts
for w in the window, the 2 at r for w above it and below n, and the plain
root for w >= n or on a component not shown to be vertex-transitive.
The proof, which looks for a labeling lighter than a seed of weight ub,
first searches parts(min(ub - 1, window)) and searches parts(ub - 1) only
when that finds none and ub - 1 lies above the window. The max-2s search
of weight w (_most_twos) searches parts(w).

Fixed labels only ever take one form, a state: the masks of the kernels'
slot 0 and the label list. _fix extends a state by a list of labels with
the kernels' child rule, and is the one Python copy of that rule; every
state grows from _SearchGraph.root, the state of no fixed label, through
_fix. The lexicographic witness rebuild extends the state of its prefix by
one label per probe, and answers four kinds of probe without a search:
both probes of a vertex that can only take a 2, being the last undecided
neighbour of a decided 0 with no 2-neighbour (_forces_two, which reads
the witness and so needs no state); one whose new label leaves a vertex
unsatisfied with no undecided neighbour (_fix); one whose new 0 leaves an
undecided neighbour with no label it can take, having no undecided and no
positive neighbour left (_strands, a look-ahead of one vertex that the
probes run and the kernels do not); and one whose own state the kernels'
scan-free child tests refute (_bound_refutes: the weight, 2-count and
cover tests and the knapsack bound's prune without its heap scan, which
stays in _kernels; the proof's root runs none of it). Every other probe
asks one question under MAX_TWOS: is there a completion of weight exactly
the optimum with at least the best 2-count (0 when 2s are not counted)?
The witness labels the walk fixes without a probe that found a completion
go to _fix in runs, one pass each, and a forced 2 joins the run without
ending it.

No max-2s search that a solve or a frontier runs starts without an
incumbent: both go through _most_twos, which searches from the 2-count of
a labeling in hand of the weight it searches, keeps that labeling when
nothing beats it, and runs no search when it already has weight // 2 twos,
the most a labeling of that weight can have. The max-2s pass of a solve
starts from the proof's witness. The frontier's first point is the max-2s
solve, and each later weight starts from the previous point's witness with
a 1 raised to 2. The greedy seed breaks gain ties toward the highest
index, where the lexicographically first optimum puts its 2s, so fewer
probes succeed in moving them; each pick scans down from the highest
index and stops at the first vertex that gains the most any vertex can.
Each incumbent is at most the 2-count of a real labeling and the
lexicographic witness is unique, so values, 2-counts and witnesses are
those of searches that start from none.

Every search (the proof, the max-2s pass and each lexicographic probe) also
applies an orbital rule below its roots, entered only from _search. A
search still running after its first chunk takes v, the fixed vertex that
is not yet satisfied with the fewest undecided neighbours, and asks whether
automorphisms that keep every fixed label carry all of v's undecided
neighbours onto u0, the lowest-index one. If v is a 0 with no fixed
2-neighbour, u0 is fixed to 2 and the rule repeats on the larger set; if v
is positive with no positive neighbour, the search splits into u0 = 2 and
u0 = 1. The reduced searches replace the running one, which is dropped;
otherwise it resumes. This is sound: every completion f puts a 2 (or a
positive label) on some undecided w in N(v), and an automorphism s with
s(w) = u0 that keeps every fixed label makes f composed with the inverse of
s a completion with the same weight and the same number of 2s, now with
that label at u0. So feasibility answers, optimal weights and best 2-counts
stay the same, and with them the lexicographically smallest witnesses,
which the probes rebuild from feasibility answers alone. When v's undecided
neighbours fall into several orbits the rule fixes nothing: fixing the
earlier orbits to 0 would lose completions that put a 1 there.
graph.in_one_orbit answers True only with automorphisms in hand that it has
checked edge by edge and colour by colour, and a search too short to pass
its first chunk runs no automorphism search at all.
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
SUBSET_LIMIT = 20     # _first_sets: gamma_t, rho, rho_o, EOD and matching-packing sets
DEFAULT_BUDGET_S = 60.0

# A search reads the clock after its first _FIRST_CHUNK nodes, then about
# every _SLICE_S seconds; a budget is therefore kept within a slice or so.
# The first clock read is also where the orbital rule first looks, and a
# split throws away the nodes before it, while an orbit query costs about
# as much as a few dozen nodes (a few hundred at most on C5 x C7); so the
# first chunk is kept short.
_FIRST_CHUNK = 1 << 8
_SLICE_S = 0.02


@dataclass(frozen=True)
class SolveResult:
    """Optimal invariant value plus a verified witness.

    method is one of brute_force, branch_and_bound, certificate. max_v2, the
    most 2s of an optimal labeling, is filled by the tie-broken solver
    variant that maximizes the 2-count and by the brute-force oracle, which
    reads it off its scan's per-weight table; the oracle's witness is still
    the lexicographically smallest optimum, whatever its 2-count.
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
    over the free vertices, floor is the free set's trivial floor, and window
    the largest weight the rich-2 lemma covers (module docstring). The
    kernels read bit and max_degree, the largest degree in free. parts(w)
    is the root policy (module docstring): the star parts, the state of a
    2 at r (two_at_r, which is also the vertex-transitivity test) or root.
    two_at_r, star and the orbital rule read pair (graph.pair_table of g).
    pair, two_at_r and star are built on first use, and two_at_r and star
    are None from the start on an irregular free set.
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
        degrees = {g.adj[v].bit_count() for v in self.verts}
        self.max_degree = max(degrees, default=0)
        self.floor = _floor(len(self.verts), self.max_degree)
        self.root = (0, 0, 0, 0, 0, 0, self.free, [-1] * g.n)
        if len(degrees) > 1:
            # irregular, so not vertex-transitive, with no automorphism search
            self.two_at_r = self.star = None

    @cached_property
    def pair(self) -> list[list[int]]:
        return self._shared.pair if self._shared is not None else pair_table(self.g)

    @property
    def window(self) -> int:
        """The largest weight the rich-2 lemma covers (module docstring)."""
        n = len(self.verts)
        return min(n - 1, (2 * n - 1) // max(self.max_degree - 1, 1))

    def parts(self, weight: int) -> list:
        """The states whose searches find, for every labeling of the free set
        of this weight, one of the same weight and 2-count: the star parts
        when weight <= window, [two_at_r] when weight < |free|, both on a
        vertex-transitive free set, and [root] otherwise (module docstring)."""
        if weight < len(self.verts) and self.two_at_r is not None:
            return self.star if weight <= self.window else [self.two_at_r]
        return [self.root]

    @cached_property
    def two_at_r(self):
        """The state of a 2 at r, the lowest free vertex, when the free set is
        vertex-transitive; None when it is not or is not shown to be."""
        g = self.g
        if not in_one_orbit(g, self.pair, [0] * g.n, self.verts):
            return None
        return _fix(g.adj, self.root, [(self.verts[0], 2)])

    @cached_property
    def star(self) -> list | None:
        """The star parts of a vertex-transitive free set, or None (see two_at_r).

        For each orbit of N(r) under the automorphisms that fix r, with p its
        lowest vertex, the states {r: 2, p: 1} and {r: 2, p: 2}, each with a
        0 on every other neighbour of r. Every labeling of weight at most
        window maps onto one of them (module docstring).
        """
        if self.two_at_r is None:
            return None
        g = self.g
        r = self.verts[0]
        nbrs = bits_of(g.adj[r])
        colour = self.two_at_r[7]
        reps = nbrs[:1]
        if not in_one_orbit(g, self.pair, colour, nbrs):
            for u in nbrs[1:]:
                if not any(in_one_orbit(g, self.pair, colour, [p, u]) for p in reps):
                    reps.append(u)
        return [_fix(g.adj, self.root, [(r, 2), (p, lab)] + [(u, 0) for u in nbrs if u != p])
                for p in reps for lab in (1, 2)]


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

    It is the count of the rich-2 lemma (module docstring) run the other
    way: with n0 zeros and n2 twos in a labeling of weight w, n0 = n - w +
    n2, and even Delta - 1 zero neighbours per 2 cover at most
    (Delta - 1) n2 of the 0s, so n - w <= (Delta - 2) n2 <= (Delta - 2) w/2,
    which is w >= 2n/Delta.
    """
    return _floor(g.n, g.max_degree())


def _floor(n: int, delta: int) -> int:
    """trivial_lower_bound of a graph or component of n vertices and largest degree delta."""
    lb = -(-2 * n // delta) if delta >= 2 else n
    return max(lb, min(n, 3))


def greedy_total_dominating_set(g: Graph) -> int:
    """Deterministic max-coverage greedy; used only to seed upper bounds.

    Each pick takes a vertex that dominates the most undominated vertices,
    breaking gain ties toward the highest index: the lexicographically first
    optimum puts its 0s at the low indices, so a seed with its 2s at the
    high ones leaves the lexicographic rebuild less to move. A pick scans
    from the highest index down and stops at the first vertex whose gain
    reaches cap, the most any vertex can gain there: the undominated count,
    and at most the previous pick's gain (Delta at the first), since gains
    only shrink as vertices get dominated. A scan that meets no such vertex
    runs to index 0 and keeps the first, so highest, vertex of the largest
    gain; either way the pick is that of a full scan. A member gains
    nothing, its neighbours being dominated, while some vertex gains at
    least 1 as long as one is undominated, so no pick tests membership.

    Returns the members as a vertex mask; the loop ends only once every
    vertex is dominated, so the set is total dominating with no re-check.
    """
    require_no_isolated(g, "total domination")
    adj = g.adj
    undominated = (1 << g.n) - 1
    members = 0
    cap = g.max_degree()
    down = range(g.n - 1, -1, -1)
    while undominated:
        cap = min(cap, undominated.bit_count())
        best_v, best_gain = -1, 0
        for v in down:
            gain = (adj[v] & undominated).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
                if gain == cap:
                    break
        cap = best_gain
        members |= 1 << best_v
        undominated &= ~adj[best_v]
    return members


def _fix(adj, state, fixes):
    """A new state: state with each undecided v of fixes, a list of (v, lab)
    pairs, labeled lab in turn by the kernels' child rule, or None when a
    vertex is left unsatisfied with no undecided neighbour, which no
    further label mends.

    A state is (weight, 2-count, cov, pos, un0, unp, und, labels), the
    kernels' slot 0 (see _kernels) with -1 for an undecided label; it is
    never changed in place. A vertex outside the free set of the searches
    from it keeps the label -1 throughout. Several labels take one copy of
    labels and one dead test, over the vertices they touched: a vertex left
    unsatisfied with no undecided neighbour stays so under every later
    label, so this is the verdict of a test after each label.
    """
    weight, twos, cov, pos, un0, unp, und, labels = state
    touched = 0
    for v, lab in fixes:
        vb = 1 << v
        nv = adj[v]
        touched |= nv | vb
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
        weight += lab
    r = (un0 | unp) & touched
    while r:
        low = r & -r
        if not adj[low.bit_length() - 1] & und:
            return None
        r ^= low
    labels = labels[:]
    for v, lab in fixes:
        labels[v] = lab
    return weight, twos, cov, pos, un0, unp, und, labels


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
    function, so the rule can apply again. The first chunk is short, since
    a split discards it and a query costs far less (see _FIRST_CHUNK). Any
    completion maps onto one of theirs with the same weight and 2-count
    (module docstring), so found and best are those of a search over every
    completion; labels is some completion that reaches best. Otherwise the
    same search resumes in chunks sized to take about _SLICE_S each; the
    kernel resumes exactly, so chunking never changes the nodes visited.
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
            return [_fix(adj, out, [(nbrs[0], 2)]), _fix(adj, out, [(nbrs[0], 1)])]
        out = _fix(adj, out, [(nbrs[0], 2)])
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


def _bound_refutes(state, cap: int, best: int, maxdeg: int) -> bool:
    """Whether the kernels' MAX_TWOS child tests that need no scan prune a whole state.

    cap, best and maxdeg are the search's st[8], st[3] and st[11], and room
    = cap - weight. The tests are _bnb's, in its order: the weight and
    2-count tests, the cover test, and the knapsack Roman cover bound's
    scan-free prune, m (maxdeg - 2) < gap with m = room // 2 and gap = |S| -
    room (see _kernels._bnb). A state it refutes has no completion of weight
    cap with more than best 2s, so a search from it would find none. The
    bound's heap scan stays in the kernel; a state that only the scan
    prunes costs a short search.
    """
    weight, twos, cov, _, un0, unp, und, _ = state
    rem = und.bit_count()
    room = cap - weight
    if room < 0 or weight + 2 * rem < cap or twos + min(rem, room // 2) <= best:
        return True
    if room < (2 if un0 else 1 if unp else 0):
        return True
    gap = ((und & ~cov) | un0).bit_count() - room
    return gap > 0 and (room >> 1) * (maxdeg - 2) < gap


def _forces_two(adj, labels, v: int) -> bool:
    """Whether a walk that has fixed labels[u] at every u < v can only give v a 2.

    That is so when v is the last undecided neighbour of a decided 0 with no
    2-neighbour: some u < v has labels[u] = 0, v as its highest neighbour,
    and no other neighbour labeled 2. A 0 or a 1 at v then leaves u with no
    2-neighbour and no undecided one, so _fix finds both probes dead. The
    lexicographic walk fixes its witness's labels, so its state agrees with
    its witness below v, and the test reads the witness alone: no run has
    to be fixed first.
    """
    vb = 1 << v
    lower = adj[v] & (vb - 1)
    while lower:
        low = lower & -lower
        lower ^= low
        u = low.bit_length() - 1
        nu = adj[u]
        if nu >> v == 1 and not labels[u]:
            rest = nu ^ vb
            while rest:
                w = rest & -rest
                if labels[w.bit_length() - 1] == 2:
                    break
                rest ^= w
            else:
                return True
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
    Each probe extends the state of the labels fixed so far by one label.
    Four kinds of probe are answered without a search: both probes of a
    vertex that can only take a 2 (_forces_two, read off the witness before
    any probe), a dead one (_fix), a 0 that leaves a neighbour with no label
    to take (_strands), and one whose own state the kernels' scan-free
    child tests refute (_bound_refutes). Any other asks _search under
    MAX_TWOS.
    The witness labels fixed with no probe that found a completion wait in
    a run, which _fix applies in one pass before the next probe and at the
    end. Labels outside sg.free come back as -1.
    """
    adj = sg.g.adj
    state = sg.root
    witness = seed
    run = []
    for v in sg.verts:
        top = witness[v]
        if not top or top == 2 and _forces_two(adj, witness, v):
            run.append((v, top))
            continue
        if run:
            state, run = _fix_witness(adj, state, run), []
        for lab in range(top):
            child = _fix(adj, state, [(v, lab)])
            if (child is None or lab == 0 and _strands(adj, child, v)
                    or _bound_refutes(child, value, twos - 1, sg.max_degree)):
                continue
            ok, _, completion = _search(sg, [child], _kernels.MAX_TWOS, twos - 1, value, True,
                                        deadline)
            if ok:
                state, witness = child, completion
                break
        else:
            run.append((v, top))
    return tuple(_fix_witness(adj, state, run)[7])


def _fix_witness(adj, state, run):
    """state with run, a list of witness labels (v, lab), fixed by _fix in one pass.

    The witness completes every state the walk keeps, so a dead result means
    the seed was no labeling: ConsistencyError.
    """
    state = _fix(adj, state, run)
    if state is None:
        raise ConsistencyError("the witness does not complete the fixed labels")
    return state


def _brute_scan(g: Graph):
    """Full 3^n scan; returns (best weight, lex-first witness, per-weight max-2-count table)."""
    require_no_isolated(g, "gamma_tR")
    if g.n > ORACLE_LIMIT:
        raise SizeLimitError(f"brute force oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    best_labels = [-1] * g.n
    table = [-1] * (2 * g.n + 1)
    st = [2 * g.n + 1, 0, 0]
    _kernels.brute_force_scan(g.adj, [1 << v for v in range(g.n)], [0] * g.n, best_labels,
                              table, st)
    return st[0], tuple(best_labels), table


def gamma_tr_bruteforce(g: Graph) -> SolveResult:
    """Independent oracle: exhaustive scan of all 3^n labelings.

    max_v2, the most 2s of an optimal labeling, is read off the scan's
    per-weight table at the optimum, with no second scan.
    """
    best, labels, table = _brute_scan(g)
    witness = verified(g, labels, best, None, "brute force witness failed validation")
    return SolveResult("gamma_tR", best, witness, "brute_force",
                       tie_break_note="lexicographically smallest optimal labeling",
                       max_v2=table[best])


def _gamma_tr_value(sg: _SearchGraph, seed: int, seed_labels: tuple[int, ...],
                    deadline: _Deadline):
    """Optimal weight of sg's free set plus a witness of that weight.

    seed is a greedy total dominating set of the whole graph as a mask, and
    seed_labels its labeling with a 2 on each member. The restriction of
    seed to the free set is that component's own greedy set: the gains of
    its vertices depend only on their component, and ties break by index
    either way. ub, twice that set's size, is the weight of seed_labels on
    the free set, which is the witness unless the search finds a lighter
    one; its labels outside the free set are never read. When the trivial
    floor of the free set reaches ub, it is the optimum and no search runs.
    Otherwise the proof searches for a labeling lighter than ub.

    The roots come from sg.parts (module docstring). On a vertex-transitive
    component whose floor lies in the window, one search of
    sg.parts(cap - 1), the star parts, first looks for the lightest
    labeling of weight at most cap - 1 = min(ub - 1, window); every
    labeling of such a weight has an image of that weight there, so one
    found is the optimum, and none found with ub - 1 in the window makes ub
    the optimum. Only an optimum above the window needs the search of
    sg.parts(ub - 1) below, and a timeout in the star search, which starts
    from window + 1 when that is below ub, carries ub as its upper bound.
    """
    ub = 2 * (seed & sg.free).bit_count()
    if sg.floor >= ub:
        return ub, seed_labels
    cap = min(ub, sg.window + 1)
    if sg.floor < cap and sg.star is not None:
        try:
            found, value, labels = _search(sg, sg.parts(cap - 1), _kernels.MIN_WEIGHT, cap, 0,
                                           False, deadline)
        except SolverTimeout as exc:
            if exc.upper_bound == cap:
                # nothing found yet, and cap may be no labeling's weight
                exc.upper_bound = ub
            raise
        if found:
            return value, labels
        if cap == ub:
            return ub, seed_labels
    found, value, labels = _search(sg, sg.parts(ub - 1), _kernels.MIN_WEIGHT, ub, 0, False,
                                   deadline)
    return (value, labels) if found else (ub, seed_labels)


def _most_twos(sg: _SearchGraph, weight: int, labels, deadline: _Deadline):
    """The most 2s a labeling of sg's free set of this weight has, and one that has them.

    labels is a valid labeling of that weight, in hand: the search starts
    from its 2-count and keeps it when nothing beats it, so it always ends
    with a labeling. No search runs when labels already has weight // 2
    twos, the most a labeling of that weight can have. The search starts
    from sg.parts(weight), where every labeling of that weight has an
    image with as many 2s (module docstring).
    """
    twos = sum(labels[v] == 2 for v in sg.verts)
    if twos < weight // 2:
        found, twos, better = _search(sg, sg.parts(weight), _kernels.MAX_TWOS, twos, weight,
                                      False, deadline)
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
    dominating set of g, and its labeling with a 2 on each member, built
    once, seed every component (see _gamma_tr_value). A
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
    seed = greedy_total_dominating_set(g)
    seed_labels = tuple(2 if seed >> v & 1 else 0 for v in range(g.n))
    value = twos = 0
    labels = [0] * g.n
    for idx, sg in enumerate(sgs):
        sub_value = None
        try:
            sub_value, sub_labels = _gamma_tr_value(sg, seed, seed_labels, deadline)
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


def _first_sets(nbhd: tuple[int, ...], sizes, disjoint: bool, covering: bool):
    """Vertex sets as masks, size by size in the order of sizes and in
    lexicographic order within a size: those whose members' nbhd masks are
    pairwise disjoint, when disjoint, and together cover every vertex, when
    covering. Every factor set question, classify's EOD set included,
    enumerates here, and this is the one check of SUBSET_LIMIT.
    """
    n = len(nbhd)
    if n > SUBSET_LIMIT:
        raise SizeLimitError(f"subset enumeration limited to {SUBSET_LIMIT} vertices, got {n}")
    full = (1 << n) - 1
    for k in sizes:
        for comb in combinations(range(n), k):
            used = 0
            for v in comb:
                if disjoint and used & nbhd[v]:
                    break
                used |= nbhd[v]
            else:
                if not covering or used == full:
                    yield mask_of(comb)


def gamma_t_exact(g: Graph) -> SolveResult:
    """Smallest total dominating set by subset enumeration in increasing cardinality.

    A set totally dominates when its members' open neighbourhoods cover
    every vertex. Every vertex has a neighbour in a total dominating set S,
    so the degrees over S sum to at least n and |S| >= ceil(n/Delta);
    smaller sizes are not tried. The first set found is the
    lexicographically first smallest one.
    """
    require_no_isolated(g, "total domination")
    sizes = range(-(-g.n // max(1, g.max_degree())), g.n + 1)
    mask = next(_first_sets(g.adj, sizes, False, True), None)
    if mask is None:
        raise ConsistencyError("no total dominating set despite no isolated vertices")
    return SolveResult("gamma_t", mask.bit_count(),
                       VertexSet(g, mask, "total_dominating"), "brute_force")


def _largest_packing(nbhd: tuple[int, ...]) -> int:
    """Lexicographically first mask of a largest packing under nbhd.

    Sizes are tried from the largest down: k pairwise disjoint masks of at
    least m vertices each fit in n vertices only when k*m <= n.
    """
    kmax = len(nbhd) // max(1, min((m.bit_count() for m in nbhd), default=1))
    # the empty graph has only the empty packing; any other a one-vertex one
    return next(_first_sets(nbhd, range(kmax, 0, -1), True, False), 0)


def rho_exact(g: Graph) -> SolveResult:
    """Largest packing (pairwise disjoint closed neighborhoods)."""
    mask = _largest_packing(tuple(g.adj[v] | 1 << v for v in range(g.n)))
    return SolveResult("rho", mask.bit_count(), VertexSet(g, mask, "packing"), "brute_force")


def rho_o_exact(g: Graph) -> SolveResult:
    """Largest open packing (pairwise disjoint open neighborhoods)."""
    mask = _largest_packing(g.adj)
    return SolveResult("rho_o", mask.bit_count(), VertexSet(g, mask, "open_packing"),
                       "brute_force")


def rho_o_set_inducing_perfect_matching(g: Graph) -> VertexSet | None:
    """The lexicographically first maximum open packing whose induced
    subgraph is a disjoint union of single edges, or None.

    The hypothesis is existential over maximum open packings, so all of them
    are searched.
    """
    for mask in _first_sets(g.adj, (rho_o_exact(g).value,), True, False):
        if all((g.adj[v] & mask).bit_count() == 1 for v in bits_of(mask)):
            return VertexSet(g, mask, "open_packing")
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
