"""Exact solvers: gamma_tR (branch-and-bound and brute force), gamma_t, the
packing numbers, the max-2s tie-broken variant, and weight/2-count frontiers.

Budgets are wall-clock seconds; running out raises SolverTimeout with the
best certified bounds rather than returning an approximation. The environment
variable TRD_BUDGET_SECS sets the default budget.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations

from . import _kernels
from .errors import ConsistencyError, SizeLimitError, SolverTimeout
from .graph import (Graph, bits_of, connected_components, induced_subgraph,
                    mask_of, require_no_isolated)
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


class _SearchArrays:
    """One graph plus the mutable search state the kernels run on."""

    def __init__(self, g: Graph, fixed: dict[int, int]):
        n = g.n
        adj = g.adj
        labels = [-1] * n
        # Slot 0 of each mask stack holds the fixed labels; the kernels fill
        # slot d+1 when they decide order[d].
        cov = pos = decided = 0
        weight = twos = 0
        for v, lab in fixed.items():
            labels[v] = lab
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
        free = [v for v in range(n) if labels[v] < 0]
        k = len(free)
        und0 = ((1 << n) - 1) ^ decided
        # A fixed vertex unsatisfied with no undecided neighbour stays unsatisfied.
        self.init_dead = any(not adj[v] & und0 for v in bits_of(un0 | unp))
        # the kernels only read the adjacency masks, so they share the graph's
        self.adj_mask = adj
        self.labels = labels
        self.order = free
        self.trial = [0] * (k + 1)
        self.cov = [cov] + [0] * k
        self.pos = [pos] + [0] * k
        self.un0 = [un0] + [0] * k
        self.unp = [unp] + [0] * k
        self.bit = [1 << v for v in range(n)]
        # order and und are stacks the kernel writes as it descends (see
        # _kernels); slot 0 lists every free vertex.
        self.und = [und0] + [0] * k
        self.best_labels = [-1] * n
        self.init_weight = weight
        self.init_v2 = twos
        self.max_degree = max(map(int.bit_count, adj), default=0)

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

    def run(self, kernel, st, deadline: float | None) -> int:
        """Run kernel to completion, reading the clock between chunks of nodes.

        Each chunk is sized from the rate of the one before so that it takes
        about _SLICE_S; the kernel resumes exactly, so chunking never changes
        the nodes visited.
        """
        chunk = _FIRST_CHUNK
        while True:
            t0 = time.monotonic()
            status = kernel(self.adj_mask, self.labels, self.order, self.trial,
                            self.cov, self.pos, self.un0, self.unp, self.bit,
                            self.und, self.best_labels, st, chunk)
            if status != _kernels.RUNNING:
                return status
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise SolverTimeout(
                    f"search budget exhausted after {st[4]} nodes", nodes=st[4])
            fit = int(chunk * _SLICE_S / max(now - t0, 1e-6))
            chunk = max(_FIRST_CHUNK, min(4 * chunk, fit))


def _deadline(budget: float | None) -> float | None:
    if budget is None:
        budget = default_budget()
    if budget <= 0:
        return None
    return time.monotonic() + budget


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


def _min_weight_search(g: Graph, fixed: dict[int, int], init_best: int,
                       early: bool, deadline: float | None):
    """Returns (found, best, labels_or_None, nodes); found means strictly below init_best."""
    arrs = _SearchArrays(g, fixed)
    if arrs.init_dead:
        return False, init_best, None, 0
    st = arrs.state(best=init_best, early=early)
    try:
        arrs.run(_kernels.bnb_min_weight, st, deadline)
    except SolverTimeout as exc:
        # The incumbent only ever drops to the weight of a valid labeling found.
        exc.upper_bound = st[3]
        raise
    found = bool(st[7])
    labels = tuple(arrs.best_labels) if found else None
    return found, st[3], labels, st[4]


def _max_twos_search(g: Graph, fixed: dict[int, int], cap: int, init_best: int,
                     early: bool, deadline: float | None):
    """Max 2-count among valid labelings of weight exactly cap, over completions of fixed."""
    arrs = _SearchArrays(g, fixed)
    if arrs.init_dead:
        return False, init_best, None
    st = arrs.state(best=init_best, cap=cap, early=early, mode=_kernels.MAX_TWOS)
    arrs.run(_kernels.bnb_max_twos, st, deadline)
    found = bool(st[7])
    labels = tuple(arrs.best_labels) if found else None
    return found, st[3], labels


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


def _gamma_tr_value(g: Graph, deadline: float | None,
                    upper_bound_hint: int | None):
    """Optimal weight plus, when the search itself improved on the seeds, a witness."""
    greedy = greedy_total_dominating_set(g)
    seed_labels = tuple(2 if greedy.members >> v & 1 else 0 for v in range(g.n))
    ub = 2 * greedy.size
    if upper_bound_hint is not None and upper_bound_hint < ub:
        ub = upper_bound_hint
        seed_labels = None
    try:
        found, value, labels, _ = _min_weight_search(g, {}, ub, False, deadline)
    except SolverTimeout as exc:
        exc.lower_bound = trivial_lower_bound(g)
        raise
    if found:
        return value, labels
    return ub, seed_labels


def _exact_connected(g: Graph, deadline: float | None,
                     upper_bound_hint: int | None):
    """Optimal weight and lexicographically smallest witness, one component."""
    value, seed = _gamma_tr_value(g, deadline, upper_bound_hint)

    def feasible(fixed):
        found, _, labels, _ = _min_weight_search(g, fixed, value + 1, True, deadline)
        return found, labels

    try:
        labels = _lex_smallest(g, feasible, seed)
    except SolverTimeout as exc:
        exc.upper_bound = value
        exc.lower_bound = value  # value itself is proven; only the witness was pending
        raise
    return value, labels


def _per_component(g: Graph, solver):
    """Run a per-component solver and stitch; the objective and the
    lexicographic tie-break both decompose over components because label
    choices in different components never interact."""
    total = 0
    twos = 0
    stitched = [0] * g.n
    comps = connected_components(g)
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


def gamma_tr_exact(g: Graph, budget: float | None = None,
                   upper_bound_hint: int | None = None) -> SolveResult:
    """Provably optimal gamma_tR by branch-and-bound.

    Disconnected graphs are solved component by component (the invariant is
    additive). upper_bound_hint, when given, must be the weight of a labeling
    already verified valid (e.g. a certified construction); it only tightens
    pruning. The returned witness is the lexicographically smallest optimal
    labeling.
    """
    require_no_isolated(g, "gamma_tR")
    deadline = _deadline(budget)
    comps = connected_components(g)
    if len(comps) == 1:
        value, labels = _exact_connected(g, deadline, upper_bound_hint)
    else:
        def solver(sub):
            v, lab = _exact_connected(sub, deadline, None)
            return v, 0, lab
        value, _, labels = _per_component(g, solver)
    witness = LabelFunction(g, labels)
    if not is_total_roman_dominating(witness) or witness.weight != value:
        raise ConsistencyError("branch-and-bound witness failed validation")
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="lexicographically smallest optimal labeling")


def _max_v2_connected(g: Graph, deadline: float | None,
                      upper_bound_hint: int | None):
    value, _ = _gamma_tr_value(g, deadline, upper_bound_hint)

    def feasible(fixed):
        ok, _, labels = _max_twos_search(g, fixed, value, v2max - 1, True, deadline)
        return ok, labels

    try:
        found, v2max, seed = _max_twos_search(g, {}, value, -1, False, deadline)
        if not found:
            raise ConsistencyError("no labeling found at the proven optimal weight")
        labels = _lex_smallest(g, feasible, seed)
    except SolverTimeout as exc:
        exc.upper_bound = value
        exc.lower_bound = value  # value itself is proven; only the 2-count was pending
        raise
    return value, v2max, labels


def gamma_tr_max_v2(g: Graph, budget: float | None = None,
                    upper_bound_hint: int | None = None) -> SolveResult:
    """gamma_tR plus the secondary objective: most 2-labels among optimal labelings."""
    require_no_isolated(g, "gamma_tR")
    deadline = _deadline(budget)
    comps = connected_components(g)
    if len(comps) == 1:
        value, v2max, labels = _max_v2_connected(g, deadline, upper_bound_hint)
    else:
        value, v2max, labels = _per_component(
            g, lambda sub: _max_v2_connected(sub, deadline, None))
    witness = LabelFunction(g, labels)
    twos = sum(1 for l in labels if l == 2)
    if not is_total_roman_dominating(witness) or witness.weight != value or twos != v2max:
        raise ConsistencyError("max-2s witness failed validation")
    return SolveResult("gamma_tR", value, witness, "branch_and_bound",
                       tie_break_note="maximum 2-count, then lexicographically smallest",
                       max_v2=v2max)


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
    deadline = _deadline(budget)
    found, _, labels = _max_twos_search(g, {}, weight, -1, False, deadline)
    if not found:
        return None
    return LabelFunction(g, labels)


def trdf_pareto_frontier(g: Graph, weight_cap: int | None = None,
                         budget: float | None = None,
                         oracle_limit: int = ORACLE_LIMIT) -> list[ParetoPoint]:
    """For each achievable weight from gamma_tR up to the cap, the best 2-count.

    The default cap 2*gamma_t is always reachable (all-2 on a minimum total
    dominating set); pass a larger cap to explore further.
    """
    require_no_isolated(g, "gamma_tR")
    deadline = _deadline(budget)
    if weight_cap is None:
        weight_cap = 2 * gamma_t_exact(g).value
    if g.n <= oracle_limit:
        best, _, table = _brute_scan(g, oracle_limit)
        top = min(weight_cap, 2 * g.n)
        return [ParetoPoint(w, table[w]) for w in range(best, top + 1) if table[w] >= 0]
    value, _ = _gamma_tr_value(g, deadline, None)
    points = []
    for w in range(value, weight_cap + 1):
        found, v2max, _ = _max_twos_search(g, {}, w, -1, False, deadline)
        if found:
            points.append(ParetoPoint(w, v2max))
    return points
