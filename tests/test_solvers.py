import hashlib
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies

from trdprod import _kernels, solve
from trdprod.bounds import factor_profile
from trdprod.catalog import enumerate_catalog
from trdprod.errors import ConsistencyError, SizeLimitError, SolverTimeout
from trdprod.families import (complete, complete_bipartite, cycle, fan, path,
                              prism, star, wheel)
from trdprod.graph import (Graph, bits_of, connected_components, direct_product,
                           from_edge_list, in_one_orbit, is_regular, mask_of, pair_table)
from trdprod.labeling import (LabelFunction, VertexSet, is_open_packing, is_packing,
                              is_total_dominating, is_total_roman_dominating)
from trdprod.solve import (_SearchGraph, _bound_refutes, _brute_scan, _fix, _forces_two,
                           _orbital_fix, _search, _strands,
                           gamma_t_exact, gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2,
                           greedy_total_dominating_set, rho_exact,
                           rho_o_exact, rho_o_set_inducing_perfect_matching,
                           trdf_pareto_frontier, trivial_lower_bound)

TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)], "2K2")
MIN, TWOS = _kernels.MIN_WEIGHT, _kernels.MAX_TWOS


def _fixed_state(adj, fixed):
    """The state of a dict of fixed labels, _fix folded over it from no label; None when dead."""
    n = len(adj)
    state = (0, 0, 0, 0, 0, 0, (1 << n) - 1, [-1] * n)
    for v, lab in fixed.items():
        state = _fix(adj, state, [(v, lab)])
        if state is None:
            break
    return state


def _fixed_labels(state):
    """The fixed labels of a state as a dict."""
    return {v: lab for v, lab in enumerate(state[7]) if lab >= 0}


def _random_isolate_free_graphs(count, seed):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(4, 9)
        p = rng.uniform(0.25, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(n, edges, f"R{len(graphs)}")
        if all(g.adj):
            graphs.append(g)
    return graphs


# values frozen from the exhaustive 3^n scan
BRUTE_VALUES = [
    (path(3), 3),
    (path(4), 4),
    (TWO_K2, 4),
    (complete(3), 3),
    (star(3), 3),
    (cycle(4), 4),
    (cycle(5), 5),
    (complete(4), 3),
]


@pytest.mark.parametrize("g,value", BRUTE_VALUES, ids=lambda x: getattr(x, "name", x))
def test_bruteforce_known_values(g, value):
    res = gamma_tr_bruteforce(g)
    assert res.value == value
    assert res.method == "brute_force"
    assert is_total_roman_dominating(res.witness) and res.witness.weight == value


def test_bruteforce_size_limit():
    with pytest.raises(SizeLimitError):
        gamma_tr_bruteforce(direct_product(cycle(4), cycle(4)).base)


EXACT_PRODUCTS = [
    (cycle(4), cycle(4), 8),
    (star(2), star(2), 7),
    (path(4), path(4), 8),
]


@pytest.mark.parametrize("g,h,value", EXACT_PRODUCTS,
                         ids=lambda x: getattr(x, "name", x))
def test_exact_known_products(g, h, value):
    res = gamma_tr_exact(direct_product(g, h).base, budget=120)
    assert res.value == value
    assert res.method == "branch_and_bound"
    assert is_total_roman_dominating(res.witness) and res.witness.weight == value


def test_exact_matches_bruteforce_with_identical_witness():
    for g in [path(2), path(3), complete(3), path(4), cycle(4), star(3),
              complete(4), TWO_K2, cycle(5), wheel(5), complete_bipartite(2, 3)]:
        bf = gamma_tr_bruteforce(g)
        ex = gamma_tr_exact(g, budget=60)
        assert bf.value == ex.value
        assert bf.witness.labels == ex.witness.labels  # shared lexicographic tie-break


def test_max_v2_known_values():
    res = gamma_tr_max_v2(direct_product(complete(3), complete(3)).base, budget=60)
    assert res.value == 6 and res.max_v2 == 3
    assert len(res.witness.v1) == 0

    res = gamma_tr_max_v2(complete(2))
    assert res.value == 2 and res.max_v2 == 0 and res.witness.labels == (1, 1)

    res = gamma_tr_max_v2(cycle(4))
    assert res.value == 4 and res.max_v2 == 2


def test_max_v2_agrees_with_scan_table():
    for g in [path(3), path(4), cycle(4), cycle(5), star(3), complete(4),
              complete_bipartite(2, 3), wheel(5), TWO_K2, prism(cycle(5)), fan(10)]:
        best, _, table = _brute_scan(g)
        res = gamma_tr_max_v2(g, budget=60)
        assert res.value == best and res.max_v2 == table[best]
        frontier = trdf_pareto_frontier(g, budget=60)
        last = frontier[-1].weight
        assert [(p.weight, p.max_v2) for p in frontier] == \
            [(w, table[w]) for w in range(best, last + 1)], g.name
        # past the frontier's end the best labeling of weight w has w // 2 twos
        assert table[last + 1:] == [w // 2 for w in range(last + 1, 2 * g.n + 1)], g.name


def test_gamma_t_rho_examples():
    assert gamma_t_exact(cycle(4)).value == 2
    assert rho_exact(cycle(4)).value == 1
    assert rho_o_exact(cycle(4)).value == 2
    assert rho_exact(path(4)).value == 2
    assert rho_o_exact(path(4)).value == 2
    assert gamma_t_exact(prism(cycle(3))).value == 2
    assert gamma_t_exact(prism(cycle(6))).value == 4
    assert gamma_t_exact(complete(2)).value == 2


def test_solver_witnesses_satisfy_their_predicates():
    graphs = (list(enumerate_catalog(5).graphs) + [prism(cycle(3))]
              + [cycle(n) for n in range(3, 17)] + [path(n) for n in range(2, 13)])
    for g in graphs:
        t = gamma_t_exact(g)
        assert is_total_dominating(t.witness) and t.witness.size == t.value
        # the first set a literal scan of every subset, smallest first, accepts
        first = next(s for k in range(1, g.n + 1) for c in itertools.combinations(range(g.n), k)
                     if is_total_dominating(s := VertexSet.from_vertices(g, c)))
        assert t.witness.members == first.members, (g.name, t.invariant)
        # the first set a literal scan of every subset, largest first, accepts
        scan = [VertexSet.from_vertices(g, c)
                for k in range(g.n, 0, -1) for c in itertools.combinations(range(g.n), k)]
        for res, accepts in ((rho_exact(g), is_packing), (rho_o_exact(g), is_open_packing)):
            first = next(s for s in scan if accepts(s))
            assert accepts(res.witness) and res.witness.size == res.value
            assert res.witness.members == first.members, (g.name, res.invariant)


def test_sandwich_gamma_t_vs_gamma_tr_on_catalog():
    from trdprod.labeling import VertexSet
    for g in enumerate_catalog(4).graphs:
        gt = gamma_t_exact(g).value
        res = gamma_tr_exact(g, budget=60)
        assert gt <= res.value <= 2 * gt
        # the positive support of a valid labeling totally dominates
        support = res.witness.positive_mask
        assert is_total_dominating(VertexSet(g, support))
        assert support.bit_count() >= gt


def test_pareto_frontier_examples():
    assert [(p.weight, p.max_v2) for p in trdf_pareto_frontier(complete(2))] == \
        [(2, 0), (3, 1), (4, 2)]
    assert [(p.weight, p.max_v2) for p in trdf_pareto_frontier(path(3))] == \
        [(3, 1), (4, 2)]
    assert [(p.weight, p.max_v2) for p in trdf_pareto_frontier(cycle(4))] == [(4, 2)]


def test_pareto_frontier_needs_no_subset_search():
    # 24 vertices, past the subset enumeration's limit; gamma_tR = 2 gamma_t = 8
    g = direct_product(fan(6), cycle(4)).base
    assert g.n > solve.SUBSET_LIMIT
    assert [(p.weight, p.max_v2) for p in trdf_pareto_frontier(g, budget=60)] == [(8, 4)]


def test_pareto_frontier_stops_at_twice_gamma_t():
    graphs = (list(enumerate_catalog(4).graphs) + [cycle(n) for n in range(3, 12)]
              + [path(n) for n in range(2, 12)]
              + [fan(6), wheel(6), prism(cycle(4)), direct_product(cycle(4), cycle(4)).base])
    for g in graphs:
        frontier = trdf_pareto_frontier(g, budget=60)
        assert frontier[-1].weight == 2 * gamma_t_exact(g).value, g.name
        assert [p.weight for p in frontier] == list(range(frontier[0].weight,
                                                          frontier[-1].weight + 1)), g.name


def test_pareto_frontier_matches_weight_constrained_search():
    # each frontier search starts from the previous point's 2-count plus
    # one, and these searches from none; the first point is the max-2s solve
    for g in [path(4), cycle(5), star(3), fan(6), wheel(6), complete_bipartite(2, 3),
              prism(cycle(4)), TWO_K2, direct_product(cycle(4), cycle(4)).base]:
        sg = _SearchGraph(g)
        frontier = trdf_pareto_frontier(g)
        assert frontier[0].witness == gamma_tr_max_v2(g).witness, g.name
        for point in frontier:
            found, twos, _ = _search(sg, [sg.root], TWOS, -1, point.weight, False,
                                     solve._Deadline(60))
            assert found and twos == point.max_v2, (g.name, point.weight)
            f = point.witness
            assert is_total_roman_dominating(f)
            assert f.weight == point.weight and len(f.v2) == point.max_v2


@pytest.mark.parametrize("answer", [(True, 2, (2, 2, 2, 2)), (True, 2, (0, 1, 2, 2)),
                                    (False, 0, None)])
def test_frontier_witness_is_reverified(monkeypatch, answer):
    # a search answer of the wrong weight, or not total Roman dominating, is
    # refused, and so is a 2-count below the fallback's, the previous witness
    # with a 1 raised to 2; 2K2's weight-5 point is the first past its max-2s
    # solve, and its fallback (2, 1, 1, 1) has fewer than 5 // 2 twos, so its
    # search runs
    real = solve._search

    def wrong_at_5(sg, parts, mode, best, cap, *args):
        if cap == 5:
            return answer
        return real(sg, parts, mode, best, cap, *args)

    monkeypatch.setattr(solve, "_search", wrong_at_5)
    with pytest.raises(ConsistencyError):
        trdf_pareto_frontier(TWO_K2)


def test_a_frontier_timeout_past_the_first_point_carries_gamma_tr(monkeypatch):
    # the max-2s solve has proven gamma_tR by the time a later weight's
    # search runs out; with a first chunk of one node that search reads the
    # clock at once, and the clock has passed the deadline
    g = next(g for g in enumerate_catalog(4).graphs if g.name == "CK")
    assert gamma_tr_exact(g).value == 4
    monkeypatch.setattr(solve, "_FIRST_CHUNK", 1)
    real = solve._solve

    def expire_after(g, deadline, max_twos):
        out = real(g, deadline, max_twos)
        deadline.at = -math.inf
        return out

    monkeypatch.setattr(solve, "_solve", expire_after)
    with pytest.raises(SolverTimeout) as err:
        trdf_pareto_frontier(g)
    assert (err.value.lower_bound, err.value.upper_bound) == (4, 4)


def test_greedy_total_dominating_set_is_valid():
    for g in [path(5), cycle(7), wheel(6), prism(cycle(4)), TWO_K2]:
        members = greedy_total_dominating_set(g)
        assert is_total_dominating(VertexSet(g, members)), g.name
    # gain ties break toward the highest index, leaving the low vertices,
    # where the lexicographically first optimum puts its 0s, out of the seed
    assert bits_of(greedy_total_dominating_set(cycle(4))) == [2, 3]
    assert bits_of(greedy_total_dominating_set(cycle(6))) == [2, 3, 4, 5]


def _greedy_by_full_scans(g):
    """The greedy seed's members as first written: every pick rescans every
    vertex outside the set, and the last of the largest gain wins."""
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
    return members


def _random_isolate_free_graphs_of_any_order(count, seed, low, high):
    """Random graphs of low..high vertices, each isolated vertex joined to a random other one."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(low, high)
        p = rng.uniform(0.02, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        touched = {v for e in edges for v in e}
        for v in range(n):
            if v not in touched:
                edges.append((v, rng.choice([u for u in range(n) if u != v])))
        graphs.append(from_edge_list(n, edges, f"A{i}"))
    return graphs


def test_the_greedy_seed_picks_what_full_scans_pick():
    # the scan from the top that stops at the most a vertex can gain takes
    # the vertices that full scans with ties broken late take
    graphs = (list(enumerate_catalog(5).graphs) + SOLVE_PRODUCTS + [from_edge_list(0, [])]
              + _random_isolate_free_graphs_of_any_order(200, 2033, 2, 40))
    for g in graphs:
        assert greedy_total_dominating_set(g) == _greedy_by_full_scans(g), g.name


def test_maximum_open_packings_and_matching_flag():
    s = rho_o_set_inducing_perfect_matching(path(4))
    assert s is not None
    assert all((path(4).adj[v] & s.members).bit_count() == 1 for v in s.vertices())
    # star: the unique maximum open packing {center, leaf} induces one edge
    assert rho_o_set_inducing_perfect_matching(star(3)) is not None
    # 2K2: rho_o-set is everything, inducing two disjoint edges
    assert rho_o_set_inducing_perfect_matching(TWO_K2) is not None


def _first_matching_packing_by_a_literal_scan(g):
    """The first maximum open packing in lexicographic order whose members each
    have exactly one neighbour in it, or None, from a scan of every subset."""
    packings = [s for k in range(g.n, -1, -1) for c in itertools.combinations(range(g.n), k)
                if is_open_packing(s := VertexSet.from_vertices(g, c))]
    return next((s for s in packings if s.size == packings[0].size
                 and all((g.adj[v] & s.members).bit_count() == 1 for v in s.vertices())), None)


def test_the_matching_packing_is_the_first_a_literal_scan_accepts():
    graphs = (list(enumerate_catalog(5).graphs) + [cycle(n) for n in range(3, 15)]
              + [path(n) for n in range(2, 13)] + [prism(cycle(3)), prism(cycle(4))])
    found = 0
    for g in graphs:
        expected = _first_matching_packing_by_a_literal_scan(g)
        s = rho_o_set_inducing_perfect_matching(g)
        if expected is None:
            assert s is None, g.name
        else:
            assert s is not None and s.members == expected.members, g.name
            found += 1
    assert (len(graphs), found) == (58, 41)


@pytest.mark.parametrize("solver", [gamma_t_exact, rho_exact, rho_o_exact,
                                    rho_o_set_inducing_perfect_matching, factor_profile],
                         ids=lambda f: f.__name__)
def test_every_subset_question_past_the_limit_is_a_size_limit_error(solver):
    g = cycle(solve.SUBSET_LIMIT + 1)
    with pytest.raises(SizeLimitError):
        solver(g)


def test_timeout_carries_bounds():
    big = direct_product(cycle(5), cycle(7)).base
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(big, budget=0.05)
    assert err.value.upper_bound is not None
    assert err.value.lower_bound is not None
    assert err.value.lower_bound <= err.value.upper_bound
    assert err.value.nodes > 0


def test_timeout_is_prompt_and_carries_the_search_incumbent():
    # C5 x C7 has gamma_tR = 21, and its whole solve takes about 2.3 s on a
    # 2-vCPU Xeon VM, far past the budget; the greedy seed gives 24, and the
    # search finds lighter labelings at once
    start = time.monotonic()
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(cycle(5), cycle(7)).base, budget=0.2)
    assert time.monotonic() - start <= 0.2 + 0.25
    assert 21 <= err.value.upper_bound < 24
    assert err.value.lower_bound == 18  # ceil(2n/Delta) = ceil(70/4)


def test_fail_first_branching_proves_c5_x_c6():
    # a fixed branching order timed out on this product at [15, 18] after 60 s
    result = gamma_tr_exact(direct_product(cycle(5), cycle(6)).base, budget=60)
    assert result.value == 18
    assert is_total_roman_dominating(result.witness) and result.witness.weight == 18


def test_trivial_lower_bound_is_below_the_oracle_on_the_catalog():
    for g in enumerate_catalog(5).graphs:
        assert trivial_lower_bound(g) <= gamma_tr_bruteforce(g).value, g.name


@pytest.mark.parametrize("g", _random_isolate_free_graphs(60, seed=2030),
                         ids=lambda g: g.name)
def test_trivial_lower_bound_is_below_the_oracle_on_random_graphs(g):
    assert trivial_lower_bound(g) <= gamma_tr_bruteforce(g).value


def test_the_zero_vertex_graph_has_gamma_t_and_floor_zero():
    # gamma_t once skipped the empty set and raised ConsistencyError, and the
    # floor was 2, above gamma_tR = 0
    g = from_edge_list(0, [])
    assert gamma_t_exact(g).value == 0
    assert trivial_lower_bound(g) == 0 == gamma_tr_exact(g).value


def test_timeout_on_a_disconnected_product_bounds_every_component():
    # C8 x C10 is two 40-vertex components, far beyond the budget
    g = direct_product(cycle(8), cycle(10)).base
    start = time.monotonic()
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(g, budget=0.05)
    assert time.monotonic() - start <= 0.05 + 0.25
    assert err.value.lower_bound is not None and err.value.upper_bound is not None
    assert err.value.lower_bound <= err.value.upper_bound


def test_max_v2_timeout_after_the_proof_carries_the_proven_value(monkeypatch):
    def out_of_time(*args):
        raise SolverTimeout("search budget exhausted")

    monkeypatch.setattr(_kernels, "bnb_max_twos", out_of_time)
    # the proof's witness of C5xC5 has fewer than 15 // 2 twos, so the pass runs
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_max_v2(direct_product(cycle(5), cycle(5)).base, budget=60)
    assert err.value.lower_bound == err.value.upper_bound == 15
    # disconnected: the proven component plus floor and greedy bounds on the other
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_max_v2(direct_product(cycle(6), cycle(6)).base, budget=60)
    assert err.value.lower_bound <= 20 <= err.value.upper_bound


@pytest.mark.parametrize("g,min_nodes,twos_nodes", [
    # The kernel visits only the labels that can satisfy a fail-first
    # vertex with one undecided neighbour, a 2 for a 0 and a 2 then a 1
    # for a positive vertex, so no count here includes a child that the
    # dead test kills at once. These counts are the same whether the
    # orbital rule first looks after 256 nodes or after 1,024.
    #
    # the trivial floor equals the greedy seed, which is the lexicographically
    # first optimum and has value // 2 twos, so nothing searches
    (direct_product(cycle(4), prism(cycle(3))).base, 0, 0),
    # one lex probe of the exact solve is pruned only by the knapsack
    # bound's heap scan, which the probes' pre-check leaves to the kernel:
    # it runs a 3-node search
    (direct_product(complete(3), wheel(6)).base, 1058, 66),
    # K4,9 and K6,6: K6,6's seed meets its floor of 4, K4,9's proof visits
    # 3 nodes, and the look-ahead and the scan-free bound pre-check answer
    # every lex probe without a search
    (direct_product(complete_bipartite(2, 3), complete_bipartite(2, 3)).base, 3, 0),
    # vertex-transitive, and its optimum of 12 lies in the window of the
    # rich-2 lemma (up to 13), so its proof searches the two star parts alone
    (direct_product(cycle(5), cycle(4)).base, 424, 0),
    # irregular, and the knapsack Roman cover bound prunes more than
    # ceil(2|S|/cmax) would under both objectives (3,672 and 384 nodes);
    # as in K3xW6, one probe of the exact solve runs a 3-node search that
    # only the heap scan would spare
    (direct_product(fan(6), cycle(4)).base, 1924, 114),
], ids=["C4xprismC3", "K3xW6", "K23xK23", "C5xC4", "F6xC4"])
def test_search_visits_a_fixed_number_of_nodes(monkeypatch, g, min_nodes, twos_nodes):
    # node totals are independent of how the search is cut into chunks
    # between clock reads; min_nodes counts every node of the exact solve
    # (its proof under MIN_WEIGHT, its lex probes under MAX_TWOS), and
    # twos_nodes the max-2s pass and lex probes of the max-2s solve
    seen = {"bnb_min_weight": 0, "bnb_max_twos": 0}
    for name in seen:
        def counting(*args, kernel=getattr(_kernels, name), name=name):
            before = int(args[11][4])
            status = kernel(*args)
            seen[name] += int(args[11][4]) - before
            return status

        monkeypatch.setattr(_kernels, name, counting)
    gamma_tr_exact(g, budget=60)
    assert seen["bnb_min_weight"] + seen["bnb_max_twos"] == min_nodes
    seen.update(bnb_min_weight=0, bnb_max_twos=0)
    gamma_tr_max_v2(g, budget=60)
    assert seen["bnb_max_twos"] == twos_nodes


@pytest.mark.parametrize("fixed,children", [
    # vertex 0 is a 0 with no 2-neighbour: only a 2 at vertex 1 saves it
    ({0: 0, 2: 1, 3: 1}, [2]),
    # vertex 0 is a 1 with no positive neighbour: a 2 at vertex 1, then a 1
    ({0: 1, 2: 1, 3: 1}, [2, 1]),
], ids=["zero", "positive"])
def test_the_kernel_branches_only_on_labels_that_satisfy_a_tight_vertex(fixed, children):
    # P4 with every vertex but 1 fixed: the fail-first vertex 0 has vertex 1
    # as its one undecided neighbour. The kernel runs one node per call, and
    # a call that visits a node leaves that child's label at vertex 1; a
    # dead child (a 0, or a 1 under a 0) would leave -1 there.
    g = path(4)
    sg = _SearchGraph(g)
    weight, twos, cov, pos, un0, unp, und, labels = _fixed_state(g.adj, fixed)
    order = bits_of(und)
    k = len(order)
    stacks = [[mask] + [0] * k for mask in (cov, pos, un0, unp, und)]
    trial = [0] * (k + 1)
    st = [0, weight, twos, 2 * g.n + 1, 0, 0, k, 0, 0, 0, MIN, sg.max_degree]
    seen = []
    while True:
        before = st[4]
        status = _kernels.bnb_min_weight(g.adj, labels, order, trial, *stacks[:4], sg.bit,
                                         stacks[4], [-1] * g.n, st, 1)
        if st[4] > before:
            seen.append(labels[1])
        if status != _kernels.RUNNING:
            break
    assert status == _kernels.DONE and seen == children and st[4] == len(children)


@pytest.mark.parametrize("g,fixes,searches", [
    # the floor meets the greedy seed, and every 2 of the witness is
    # forced, so the walk probes nothing and makes only its last _fix
    (direct_product(cycle(4), prism(cycle(3))).base, 1, 0),
    # the same in each of two components
    (direct_product(path(4), path(4)).base, 2, 0),
    (direct_product(cycle(4), cycle(4)).base, 2, 0),
    # K4,9's proof is the one search; in each component one 2 is forced,
    # and the other runs two probes, each one _fix, after one _fix of the
    # labels before it
    (direct_product(complete_bipartite(2, 3), complete_bipartite(2, 3)).base, 8, 1),
], ids=["C4xprismC3", "P4xP4", "C4xC4", "K23xK23"])
def test_a_small_solve_makes_a_fixed_number_of_fix_and_search_calls(monkeypatch, g, fixes,
                                                                     searches):
    # a work pin that needs no clock: the exact and the max-2s solve of each
    # product make this many _fix calls (probes and runs of witness labels)
    # and _search calls (a split search counts once per call)
    calls = {"_fix": 0, "_search": 0}
    for name in calls:
        def counting(*args, real=getattr(solve, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(solve, name, counting)
    for solver in (gamma_tr_exact, gamma_tr_max_v2):
        calls.update(_fix=0, _search=0)
        solver(g, budget=60)
        assert (calls["_fix"], calls["_search"]) == (fixes, searches), solver.__name__


def test_a_timeout_reports_the_nodes_of_every_search_of_the_solve(monkeypatch):
    # The proof runs to completion; the first lex probe stops after one node
    # and then finds the clock far past the deadline, so the timeout comes
    # from the probe and must count the proof's nodes too.
    proof_nodes = [0]
    late = []
    for name in ("bnb_min_weight", "bnb_max_twos"):
        def stepping(*args, kernel=getattr(_kernels, name)):
            st = args[11]
            if st[9]:
                late.append(True)
                return kernel(*args[:-1], 1)
            before = st[4]
            status = kernel(*args)
            proof_nodes[0] += st[4] - before
            return status

        monkeypatch.setattr(_kernels, name, stepping)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if late else 0)))
    # K3 x W6 still probes after its proof (C5 x C4's proof witness is
    # already the lexicographically first optimum, so no probe searches).
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(complete(3), wheel(6)).base, budget=60)
    assert late and proof_nodes[0] > 0
    assert err.value.nodes > proof_nodes[0]
    assert err.value.lower_bound == err.value.upper_bound == 7


@pytest.mark.parametrize("g", _random_isolate_free_graphs(40, seed=2020),
                         ids=lambda g: g.name)
def test_search_agrees_with_the_scan_on_random_graphs(g):
    # guards the kernels and the lexicographic probes, which start from fixed labels
    _assert_search_agrees_with_the_scan(g)


# the products of the benchmark's solve workload
SOLVE_PRODUCTS = [
    direct_product(complete(3), wheel(6)).base,
    direct_product(complete(3), fan(6)).base,
    direct_product(cycle(4), prism(cycle(3))).base,
    direct_product(cycle(4), cycle(4)).base,
    direct_product(path(4), path(4)).base,
    direct_product(complete_bipartite(2, 3), complete_bipartite(2, 3)).base,
    direct_product(cycle(5), cycle(4)).base,
]

# sha256 of bytes(labels) of each solve product's witness; the exact and the
# max-2s solve give the same one on all seven, since each lex-first optimum
# already has the most 2s of its weight
SOLVE_WITNESS_DIGESTS = [
    "2241a32fbe13aa988f1c0c0a24ba251357e39de9a3bba045ca5dee44a386eff4",
    "2241a32fbe13aa988f1c0c0a24ba251357e39de9a3bba045ca5dee44a386eff4",
    "ec1c57ae8adc43c19ce43075006ffacdb70de8dd2d7d5d0ab69e7b255db74305",
    "7f389a29268cf32f35c92a01c95bcd2bf740d4f290297c109756f42d0567795f",
    "517c3b5832e718e7f4ebb174e284cb5a8c749ee3b16a072ba30b418b591d9dbf",
    "8759c3c90351075ee035d0c7d851a40f6d619fb3f5dbc9ad2cd7ad1df29828c5",
    "c5d2903c227d6e0fe2d02eabfd8ce2ef4ab5c3000735e20016a8b5108b72d3a7",
]


@pytest.mark.parametrize("g,digest", zip(SOLVE_PRODUCTS, SOLVE_WITNESS_DIGESTS),
                         ids=[g.name for g in SOLVE_PRODUCTS])
def test_the_solve_products_keep_their_witnesses(g, digest):
    # a change to the lex walk or its probes' pre-checks must keep every
    # witness, not only the value
    for solver in (gamma_tr_exact, gamma_tr_max_v2):
        labels = solver(g, budget=60).witness.labels
        assert hashlib.sha256(bytes(labels)).hexdigest() == digest, solver.__name__


@pytest.mark.parametrize("g", _random_isolate_free_graphs(40, seed=2020) + SOLVE_PRODUCTS,
                         ids=lambda g: g.name)
def test_the_seeded_max_twos_pass_agrees_with_the_unseeded_one(g):
    # the max-2s pass starts from the 2-count of the proof's witness, a real
    # labeling of the optimal weight, so it finds the same best 2-count and
    # only prunes more than a pass that starts from none
    whole = _SearchGraph(g)
    comps = connected_components(g)
    seed = greedy_total_dominating_set(g)
    seed_labels = tuple(2 if seed >> v & 1 else 0 for v in range(g.n))
    for comp in comps:
        sg = whole if len(comps) == 1 else _SearchGraph(g, comp, whole)
        value, witness = solve._gamma_tr_value(sg, seed, seed_labels, solve._Deadline(0))
        t0 = sum(witness[v] == 2 for v in bits_of(comp))
        seeded, unseeded = solve._Deadline(0), solve._Deadline(0)
        _, best, _ = _search(sg, [sg.root], TWOS, t0, value, False, seeded)
        found, best_unseeded, _ = _search(sg, [sg.root], TWOS, -1, value, False, unseeded)
        assert found and best == best_unseeded >= t0
        assert seeded.nodes <= unseeded.nodes


def _optimal_labelings(g):
    """gamma_tR of g and every optimal labeling in lexicographic order, by a scan of all 3^n."""
    best, optima = 2 * g.n + 1, []
    for labels in itertools.product((0, 1, 2), repeat=g.n):
        weight = sum(labels)
        if weight > best or not is_total_roman_dominating(LabelFunction(g, labels)):
            continue
        if weight < best:
            best, optima = weight, []
        optima.append(labels)
    return best, optima


@pytest.mark.parametrize("g", [g for g in _random_isolate_free_graphs(60, seed=2027)
                               if g.n <= 8][:30], ids=lambda g: g.name)
def test_the_lex_rebuild_does_not_depend_on_its_seed(g):
    # a solve seeds the rebuild with its own witness only; here every optimum
    # is a seed, and every max-2s optimum a seed of the max-2s rebuild
    value, optima = _optimal_labelings(g)
    sg = _SearchGraph(g)
    deadline = solve._Deadline(0)
    for seed in optima:
        assert solve._lex_smallest(sg, value, 0, seed, deadline) == optima[0]
    twos = max(labels.count(2) for labels in optima)
    most = [labels for labels in optima if labels.count(2) == twos]
    for seed in most:
        assert solve._lex_smallest(sg, value, twos, seed, deadline) == most[0]


def test_a_seed_that_is_not_a_labeling_is_a_consistency_error():
    # fixing the seed's 0 at the second vertex of K2 leaves it with no
    # 2-neighbour and no undecided one
    g = complete(2)
    with pytest.raises(ConsistencyError):
        solve._lex_smallest(_SearchGraph(g), 2, 0, (0, 0), solve._Deadline(0))


@pytest.mark.parametrize("g,seed,run", [
    (path(4), (0, 2, 1, 0), 2),
    (path(5), (0, 2, 1, 0, 0), 3),
    (cycle(6), (0, 0, 2, 1, 0, 0), 3),
], ids=["P4", "P5", "C6"])
def test_a_seed_that_breaks_at_the_end_of_a_run_is_a_consistency_error(monkeypatch, g, seed,
                                                                       run):
    # every probe of the walk is dead, so it fixes the seed's labels from
    # its 1 on in one run, applied at the end; the last vertex's 0 has no
    # 2-neighbour, which a test after each label would see only at that 0
    value = gamma_tr_exact(g).value
    calls = []

    def spying(adj, state, fixes):
        calls.append((state, fixes))
        return _fix(adj, state, fixes)

    monkeypatch.setattr(solve, "_fix", spying)
    with pytest.raises(ConsistencyError):
        solve._lex_smallest(_SearchGraph(g), value, 0, seed, solve._Deadline(0))
    state, fixes = calls[-1]
    assert len(fixes) == run and fixes[-1] == (g.n - 1, 0)
    for i, step in enumerate(fixes):
        state = _fix(g.adj, state, [step])
        assert (state is None) == (i == run - 1)


def _relabeling_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(6, 10)
        p = rng.uniform(0.25, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if len({v for e in edges for v in e}) < n:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        g = from_edge_list(n, edges, f"P{len(cases)}")
        h = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges], f"P{len(cases)}'")
        cases.append((g, h))
    return cases


@pytest.mark.parametrize("g,h", _relabeling_cases(16, seed=2022),
                         ids=lambda g: g.name)
def test_search_values_do_not_depend_on_vertex_labels(g, h):
    # the fail-first rule breaks ties by vertex index, so a relabeled copy
    # takes another search path to the same optimum and max-2s count
    best, _, table = _brute_scan(g)
    for graph in (g, h):
        assert gamma_tr_exact(graph, budget=60).value == best
        result = gamma_tr_max_v2(graph, budget=60)
        assert result.value == best and result.max_v2 == table[best]


def _assert_search_agrees_with_the_scan(g):
    best, labels, table = _brute_scan(g)
    exact = gamma_tr_exact(g, budget=60)
    assert exact.value == best and exact.witness.labels == labels
    assert gamma_tr_max_v2(g, budget=60).max_v2 == table[best]


@strategies.composite
def _isolate_free_graphs(draw):
    n = draw(strategies.integers(4, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(strategies.lists(strategies.booleans(), min_size=len(pairs),
                                 max_size=len(pairs)))
    edges = {p for p, k in zip(pairs, keep) if k}
    for v in range(n):
        if not any(v in e for e in edges):
            edges.add(tuple(sorted((v, (v + 1) % n))))
    return from_edge_list(n, sorted(edges), f"H{n}")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_isolate_free_graphs())
def test_search_agrees_with_the_scan_on_drawn_graphs(g):
    _assert_search_agrees_with_the_scan(g)


def _fixed_prefix_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    for g in _random_isolate_free_graphs(count, seed):
        fixed_vertices = rng.sample(range(g.n), rng.randint(1, g.n - 1))
        cases.append((g, {v: rng.choice((0, 1, 2)) for v in fixed_vertices}))
    return cases


@pytest.mark.parametrize("g,fixed", _fixed_prefix_cases(40, seed=2021),
                         ids=lambda x: getattr(x, "name", None))
def test_search_from_fixed_labels_agrees_with_a_scan_of_completions(g, fixed):
    # the lexicographic probes start both searches from fixed labels, whose
    # 2s seed the kernels' slot-0 masks; no full solve reaches that state
    _assert_searches_agree_with_a_scan_of_completions(g, fixed)


def _assert_searches_agree_with_a_scan_of_completions(g, fixed):
    free = [v for v in range(g.n) if v not in fixed]
    valid = []
    for labs in itertools.product((0, 1, 2), repeat=len(free)):
        labels = [fixed.get(v, 0) for v in range(g.n)]
        for v, lab in zip(free, labs):
            labels[v] = lab
        f = LabelFunction(g, tuple(labels))
        if is_total_roman_dominating(f):
            valid.append((f.weight, labels.count(2)))

    def completes(labels):
        f = LabelFunction(g, labels)
        return is_total_roman_dominating(f) and all(labels[v] == fixed[v] for v in fixed)

    sg = _SearchGraph(g)
    state = _fixed_state(g.adj, fixed)
    deadline = solve._Deadline(0)
    found, best, labels = _search(sg, [state], MIN, 2 * g.n + 1, 0, False, deadline)
    assert found == bool(valid)
    if not valid:
        return
    low = min(w for w, _ in valid)
    assert best == low and completes(labels) and sum(labels) == low
    for init_best in (low, low + 1):
        found, _, labels = _search(sg, [state], MIN, init_best, 0, True, deadline)
        assert found == (low < init_best)
        if found:
            assert completes(labels) and sum(labels) < init_best
    for cap in sorted({w for w, _ in valid} | {low - 1}):
        twos = max((t for w, t in valid if w == cap), default=None)
        found, best, labels = _search(sg, [state], TWOS, -1, cap, False, deadline)
        assert found == (twos is not None)
        if not found:
            continue
        assert best == twos and completes(labels)
        assert sum(labels) == cap and labels.count(2) == twos
        assert _search(sg, [state], TWOS, twos - 1, cap, True, deadline)[0]
        assert not _search(sg, [state], TWOS, twos, cap, True, deadline)[0]


@pytest.mark.parametrize("g", _random_isolate_free_graphs(40, seed=2026),
                         ids=lambda g: g.name)
def test_fixed_state_matches_the_masks_of_its_labels(g):
    # _fix folded over partial labelings, applied in a random order, against
    # the slot-0 masks computed from their definitions; _fix given all the
    # labels at once gives the same state, or None when the fold dies
    rng = random.Random(g.name)
    for _ in range(20):
        fixed = {v: rng.choice((0, 1, 2)) for v in rng.sample(range(g.n), rng.randint(0, g.n))}
        twos = pos = cov = 0
        for v, lab in fixed.items():
            if lab:
                pos |= 1 << v
            if lab == 2:
                twos |= 1 << v
                cov |= g.adj[v]
        und = ((1 << g.n) - 1) & ~sum(1 << v for v in fixed)
        un0 = sum(1 << v for v, lab in fixed.items() if lab == 0 and not g.adj[v] & twos)
        unp = sum(1 << v for v, lab in fixed.items() if lab and not g.adj[v] & pos)
        dead = any((un0 | unp) >> v & 1 and not g.adj[v] & und for v in range(g.n))
        state = _fixed_state(g.adj, fixed)
        assert (state is None) == dead
        assert _fix(g.adj, _fixed_state(g.adj, {}), list(fixed.items())) == state
        if dead:
            continue
        labels = [fixed.get(v, -1) for v in range(g.n)]
        assert state == (sum(fixed.values()), twos.bit_count(), cov, pos, un0, unp, und, labels)
        # a state is never changed in place
        free = [v for v in range(g.n) if v not in fixed]
        if free:
            _fix(g.adj, state, [(rng.choice(free), rng.choice((0, 1, 2)))])
            assert state[7] == labels


def _has_completion(g, fixed, weight=None, twos=0):
    """Whether some total Roman dominating labeling keeps fixed, by a scan of all 3^free;
    given a weight, one of that weight with at least twos 2s."""
    free = [v for v in range(g.n) if v not in fixed]
    for labs in itertools.product((0, 1, 2), repeat=len(free)):
        labels = [fixed.get(v, 0) for v in range(g.n)]
        for v, lab in zip(free, labs):
            labels[v] = lab
        if weight is not None and (sum(labels) != weight or labels.count(2) < twos):
            continue
        if is_total_roman_dominating(LabelFunction(g, tuple(labels))):
            return True
    return False


def test_a_probe_the_look_ahead_rejects_has_no_completion():
    # the lex probes answer a 0 that strands a neighbour without a search;
    # every such child, over random graphs and prefixes, has no completion
    rng = random.Random(2031)
    rejected = 0
    for g in _random_isolate_free_graphs(60, seed=2031):
        if g.n > 7:
            continue
        for _ in range(25):
            fixed = {v: rng.choice((0, 1, 2))
                     for v in rng.sample(range(g.n), rng.randint(0, g.n - 1))}
            state = _fixed_state(g.adj, fixed)
            if state is None:
                continue
            for v in range(g.n):
                if v in fixed:
                    continue
                child = _fix(g.adj, state, [(v, 0)])
                if child is not None and _strands(g.adj, child, v):
                    rejected += 1
                    assert not _has_completion(g, {**fixed, v: 0}), (g.name, fixed, v)
    assert rejected >= 100


def test_both_probes_of_a_vertex_forced_to_2_are_dead():
    # the lex walk gives a vertex its witness's 2 without probing 0 and 1
    # when _forces_two reads off the witness that it can only take a 2; the
    # walk's state then holds the witness's labels below that vertex, and
    # _fix must find both probes from that state dead
    rng = random.Random(2034)
    forced = 0
    for g in _random_isolate_free_graphs(60, seed=2034):
        for _ in range(25):
            labels = tuple(rng.choice((0, 0, 1, 2)) for _ in range(g.n))
            for v in range(g.n):
                state = _fixed_state(g.adj, {u: labels[u] for u in range(v)})
                if state is None:
                    break
                if _forces_two(g.adj, labels, v):
                    forced += 1
                    assert _fix(g.adj, state, [(v, 0)]) is None, (g.name, labels, v)
                    assert _fix(g.adj, state, [(v, 1)]) is None, (g.name, labels, v)
    assert forced >= 100


def test_a_probe_the_bound_pre_check_rejects_has_no_completion():
    # the lex probes answer a state that the kernels' scan-free child tests
    # refute without a search; every probe state it rejects, over random
    # graphs and prefixes, has no completion of the optimal weight with the
    # probed 2-count (0, or the most 2s at that weight, as in the two solves)
    rng = random.Random(2032)
    rejected = 0
    for g in _random_isolate_free_graphs(60, seed=2032):
        if g.n > 7:
            continue
        value, _, table = _brute_scan(g)
        maxdeg = _SearchGraph(g).max_degree
        for _ in range(25):
            fixed = {v: rng.choice((0, 1, 2))
                     for v in rng.sample(range(g.n), rng.randint(0, g.n - 1))}
            state = _fixed_state(g.adj, fixed)
            if state is None:
                continue
            for v in range(g.n):
                if v in fixed:
                    continue
                for lab in (0, 1, 2):
                    child = _fix(g.adj, state, [(v, lab)])
                    if child is None or lab == 0 and _strands(g.adj, child, v):
                        continue
                    for twos in (0, table[value]):
                        if _bound_refutes(child, value, twos - 1, maxdeg):
                            rejected += 1
                            assert not _has_completion(g, {**fixed, v: lab}, value, twos), (
                                g.name, fixed, v, lab, twos)
    assert rejected >= 100


def _literal_scan(g):
    """gamma_tR, the lex-first optimum and the most 2s at each weight (-1 where
    no labeling weighs that much), by is_total_roman_dominating on all 3^n labelings."""
    best, witness, table = 2 * g.n + 1, None, [-1] * (2 * g.n + 1)
    for labels in itertools.product((0, 1, 2), repeat=g.n):
        if is_total_roman_dominating(LabelFunction(g, labels)):
            weight = sum(labels)
            table[weight] = max(table[weight], labels.count(2))
            if weight < best:
                best, witness = weight, labels
    return best, witness, table


# the audit's 9-vertex products and the 10-vertex scan of bench_kernels.py
_SCAN_PRODUCTS = [direct_product(g, h).base for g, h in
                  [(path(3), path(3)), (path(3), complete(3)), (complete(3), complete(3)),
                   (complete(2), cycle(5))]]


@pytest.mark.parametrize("g", list(enumerate_catalog(4).graphs)
                         + [g for g in _random_isolate_free_graphs(60, seed=2036)
                            if g.n <= 8][:30] + _SCAN_PRODUCTS, ids=lambda g: g.name)
def test_the_scan_kernel_matches_a_literal_scan(g):
    assert _brute_scan(g) == _literal_scan(g)


def test_eod_product_certificate_case():
    # the 2K2 product of two single edges: optimum is all-1, never uses a 2
    best, labels, table = _brute_scan(TWO_K2)
    assert best == 4 and table[4] == 0
    assert labels == (1, 1, 1, 1)


def _run_pair(g):
    found, best, _ = _search(_SearchGraph(g), [_fixed_state(g.adj, {})], MIN, 2 * g.n + 1, 0,
                             False, solve._Deadline(0))
    assert found
    table = [-1] * (2 * g.n + 1)
    bst = [2 * g.n + 1, 0, 0]
    bit = [1 << v for v in range(g.n)]
    _kernels.brute_force_scan(g.adj, bit, [0] * g.n, [-1] * g.n, table, bst)
    assert bst[2] == 3 ** g.n
    return best, bst[0], table


def test_kernel_fallback_parity():
    # the B&B kernel must find the optimum the 3^n scan kernel finds, and the
    # scan's per-weight table must start at that same weight
    for g in [path(4), cycle(5), star(3), complete(4), TWO_K2]:
        bnb_min, scan_min, table = _run_pair(g)
        assert bnb_min == scan_min == min(w for w, t in enumerate(table) if t >= 0)


@pytest.mark.parametrize("g,value,twos,budget", [
    # two components of 36 vertices each
    (direct_product(path(8), path(9)).base, 40, 20, 60),
    (direct_product(complete(9), complete(8)).base, 6, 3, 60),
    # far beyond the budget: the timeout must bracket the optimum 38 (from an
    # ILP) between the floor ceil(2n/Delta) = ceil(132/4) = 33 and its incumbent
    (direct_product(complete(3), cycle(22)).base, 38, None, 0.2),
], ids=["P8xP9", "K9xK8", "K3xC22"])
def test_search_runs_on_products_beyond_64_vertices(g, value, twos, budget):
    assert g.n > 64
    if twos is None:
        with pytest.raises(SolverTimeout) as err:
            gamma_tr_exact(g, budget=budget)
        assert 33 <= err.value.lower_bound <= value <= err.value.upper_bound
        return
    most_twos = gamma_tr_max_v2(g, budget=budget)
    for res in (gamma_tr_exact(g, budget=budget), most_twos):
        assert res.value == value
        assert is_total_roman_dominating(res.witness) and res.witness.weight == value
    assert most_twos.max_v2 == twos and most_twos.witness.labels.count(2) == twos


def _circulant(n, jumps):
    """Vertex v joined to v + j mod n for each jump j."""
    return from_edge_list(n, [(v, (v + j) % n) for v in range(n) for j in jumps],
                          f"Ci{n}({','.join(map(str, jumps))})")


def _random_circulants(count, seed, low, high):
    """Distinct connected circulants."""
    rng = random.Random(seed)
    picked = set()
    while len(picked) < count:
        n = rng.randint(low, high)
        jumps = tuple(sorted(rng.sample(range(1, n // 2 + 1), rng.randint(1, 3))))
        if math.gcd(n, *jumps) == 1:
            picked.add((n, jumps))
    return [_circulant(n, jumps) for n, jumps in sorted(picked)]


def _induced_subgraph(g, vertices):
    """Subgraph on the given vertices, relabeled 0..k-1 in list order."""
    index = {v: i for i, v in enumerate(vertices)}
    keep = mask_of(vertices)
    adj = [mask_of(index[u] for u in bits_of(g.adj[v] & keep)) for v in vertices]
    return Graph(len(vertices), tuple(adj), g.name)


def _components(g):
    return [_induced_subgraph(g, bits_of(comp)) for comp in connected_components(g)]


def _is_vertex_transitive(g):
    """Whether verified automorphisms carry vertex 0 to every vertex: the
    regularity test and orbit query of the solver's symmetric proof."""
    return g.n < 2 or is_regular(g) and in_one_orbit(g, pair_table(g), [0] * g.n, range(g.n))


# cubic, 12 vertices, and its only automorphism is the identity: a 12-cycle
# plus the chords of its LCF notation
FRUCHT = from_edge_list(12, [(v, (v + 1) % 12) for v in range(12)]
                        + [(v, (v + j) % 12) for v, j in
                           enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])],
                        "Frucht")
# 4-regular on 8 vertices, not vertex-transitive
REGULAR_8 = from_edge_list(8, [(int(e[0]), int(e[1])) for e in
                               "02 03 04 07 12 14 15 16 23 27 34 36 45 56 57 67".split()],
                           "R8")


@pytest.mark.parametrize("g", [
    direct_product(cycle(5), cycle(5)).base,
    direct_product(cycle(5), cycle(4)).base,
    direct_product(cycle(7), cycle(7)).base,
    direct_product(complete(4), cycle(7)).base,
    direct_product(complete(3), complete(3)).base,
    complete_bipartite(6, 6),
    # both have twin vertices, which defeat a search on adjacency alone
    direct_product(cycle(4), prism(cycle(3))).base,
    direct_product(prism(cycle(5)), cycle(5)).base,
] + _random_circulants(12, seed=2024, low=6, high=30), ids=lambda g: g.name)
def test_vertex_transitive_graphs_are_recognised(g):
    assert _is_vertex_transitive(g)


@pytest.mark.parametrize("g", [
    direct_product(complete(3), wheel(6)).base,
    direct_product(fan(6), cycle(4)).base,
    FRUCHT,
    REGULAR_8,
    *_components(direct_product(path(4), path(4)).base),
    # the 13-vertex component (the 12-vertex one is vertex-transitive)
    _components(direct_product(complete_bipartite(2, 3),
                               complete_bipartite(2, 3)).base)[0],
], ids=lambda g: f"{g.name}-{g.n}")
def test_other_graphs_are_refused(g):
    assert not _is_vertex_transitive(g)


@pytest.mark.parametrize("g,optimum,with_two_at_0", [(FRUCHT, 8, 9), (REGULAR_8, 4, 5)],
                         ids=lambda x: getattr(x, "name", x))
def test_a_regular_graph_that_is_not_vertex_transitive_keeps_its_optimum(
        g, optimum, with_two_at_0):
    # Every optimal labeling here leaves vertex 0 below 2, so a proof started
    # from a 2 at vertex 0 would report a heavier optimum.
    assert _search(_SearchGraph(g), [_fixed_state(g.adj, {0: 2})], MIN, 2 * g.n + 1, 0, False,
                   solve._Deadline(0))[1] == with_two_at_0
    best, labels, _ = _brute_scan(g)
    assert best == optimum
    result = gamma_tr_exact(g, budget=60)
    assert result.value == best and result.witness.labels == labels


@pytest.mark.parametrize("g", _random_circulants(16, seed=2025, low=6, high=12),
                         ids=lambda g: g.name)
def test_search_agrees_with_the_scan_on_circulants(g):
    # vertex-transitive, so the proof starts from a 2 at vertex 0 whenever
    # the floor is below the seed
    _assert_search_agrees_with_the_scan(g)


# the products of test_vertex_transitive_graphs_are_recognised but C7 x C7
# and prism(C5) x C5, whose solves take 10-90 s each
_VERTEX_TRANSITIVE_PRODUCTS = [
    direct_product(cycle(5), cycle(5)).base,
    direct_product(cycle(5), cycle(4)).base,
    direct_product(complete(4), cycle(7)).base,
    direct_product(complete(3), complete(3)).base,
    direct_product(cycle(4), prism(cycle(3))).base,
]


def _exact_and_most_twos(g):
    exact = gamma_tr_exact(g, budget=120)
    most = gamma_tr_max_v2(g, budget=120)
    return exact.value, exact.witness.labels, most.max_v2, most.witness.labels


@pytest.mark.parametrize(
    "g", _VERTEX_TRANSITIVE_PRODUCTS + _random_circulants(16, seed=2025, low=6, high=12),
    ids=lambda g: g.name)
def test_orbital_fixing_on_every_search_keeps_values_and_witnesses(monkeypatch, g):
    # With a first chunk of one node, every search that does not end at once
    # asks the orbital rule for fixes: the proof and each lex probe, under
    # both objectives.
    monkeypatch.setattr(solve, "_FIRST_CHUNK", 1)
    with monkeypatch.context() as off:
        off.setattr(solve, "in_one_orbit", lambda *args: False)
        plain = _exact_and_most_twos(g)
    assert _exact_and_most_twos(g) == plain
    if g.n <= 12:
        best, labels, table = _brute_scan(g)
        assert plain[:3] == (best, labels, table[best])


def test_a_colouring_that_breaks_the_symmetry_gives_no_fix():
    g = direct_product(cycle(5), cycle(5)).base
    sg = _SearchGraph(g)
    # N((0,0)) is {(1,1), (1,4), (4,1), (4,4)} = {6, 9, 21, 24}, one orbit
    # of the maps (a, b) -> (+-a, +-b) and (a, b) -> (b, a).
    assert in_one_orbit(g, sg.pair, [0] * g.n, [6, 9, 21, 24])
    # A lone 0 at vertex 0 gets a 2 at vertex 6. Vertex 6 then needs a
    # positive neighbour among {2, 10, 12}, and the maps that fix both
    # vertices keep 12 = (2,2) and swap 2 and 10, so the rule stops there.
    def fixes(fixed):
        return [_fixed_labels(part) for part in _orbital_fix(sg, _fixed_state(g.adj, fixed))]

    assert fixes({0: 0}) == [{0: 0, 6: 2}]
    # With vertex 6 labeled 1, vertex 0's undecided neighbours fall into two
    # orbits, {9, 21} and {24}, so the rule fixes nothing.
    colour = [{0: 0, 6: 1}.get(v, -1) for v in range(g.n)]
    assert in_one_orbit(g, sg.pair, colour, [9, 21])
    assert not in_one_orbit(g, sg.pair, colour, [9, 21, 24])
    assert fixes({0: 0, 6: 1}) == []
    # a positive vertex with no positive neighbour splits the search
    assert fixes({0: 2}) == [{0: 2, 6: 2}, {0: 2, 6: 1}]


def test_a_timeout_counts_the_nodes_of_a_discarded_first_chunk(monkeypatch):
    # C5 x C5's star parts are built with no orbital rule call, and the
    # rule is first asked only after a first chunk of nodes; the proof's
    # search of the star parts ends without a fix. The first lex probe to
    # outlast its first chunk, vertices 0-4 all 0, is dropped for two
    # reduced searches. The clock then reads far past the deadline, and the
    # first reduced search times out.
    nodes = [0]
    fixes = []
    orbital_fix = solve._orbital_fix
    for name in ("bnb_min_weight", "bnb_max_twos"):
        def counting(*args, kernel=getattr(_kernels, name)):
            before = args[11][4]
            status = kernel(*args)
            nodes[0] += args[11][4] - before
            return status

        monkeypatch.setattr(_kernels, name, counting)

    def recording(sg, state):
        parts = orbital_fix(sg, state)
        fixes.append((nodes[0], _fixed_labels(state), [_fixed_labels(p) for p in parts]))
        return parts

    def dropped():
        return any(chunk and parts for chunk, _, parts in fixes)

    monkeypatch.setattr(solve, "_orbital_fix", recording)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if dropped() else 0)))
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(cycle(5), cycle(5)).base, budget=60)
    assert fixes[0][0] >= solve._FIRST_CHUNK
    chunk, fixed, parts = fixes[-1]
    assert fixed == {v: 0 for v in range(5)} and len(parts) == 2
    assert chunk >= solve._FIRST_CHUNK
    assert err.value.nodes == nodes[0] > chunk
    # the proof had ended, so only the witness was pending
    assert err.value.lower_bound == err.value.upper_bound == 15


def test_a_timeout_in_a_part_of_the_split_proof_root_carries_the_floor(monkeypatch):
    # the first of C5 x C5's star parts (a 2 at vertex 0 with a 1 at vertex
    # 6) runs one chunk and then finds the clock far past the deadline
    chunks = []
    kernel = _kernels.bnb_min_weight

    def counting(*args):
        chunks.append(True)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "bnb_min_weight", counting)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if chunks else 0)))
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(cycle(5), cycle(5)).base, budget=60)
    assert len(chunks) == 1 and err.value.nodes == solve._FIRST_CHUNK
    assert err.value.lower_bound == 13 and err.value.upper_bound >= 15


def test_a_timeout_in_the_star_search_carries_the_seed_weight(monkeypatch):
    # K4 x C7's window ends at 11, below its optimum of 13 and its seed's
    # weight of 16, so the star search looks only below 12 and finds
    # nothing; a timeout after its first node must carry the seed's 16, not
    # the 12 it started from
    chunks = []
    kernel = _kernels.bnb_min_weight

    def counting(*args):
        chunks.append(True)
        return kernel(*args)

    monkeypatch.setattr(solve, "_FIRST_CHUNK", 1)
    monkeypatch.setattr(_kernels, "bnb_min_weight", counting)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if chunks else 0)))
    g = direct_product(complete(4), cycle(7)).base
    assert _SearchGraph(g).window == 11
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(g, budget=60)
    assert len(chunks) == 1 and err.value.nodes == 1
    assert err.value.lower_bound == 10 and err.value.upper_bound == 16


# vertex-transitive, at most 10 vertices; the direct products K2 x K4 and
# K3 x K3 are the cube minus a perfect matching and the complement of the
# 3 x 3 rook's graph
_SMALL_VERTEX_TRANSITIVE = [
    complete(4), complete(5), complete_bipartite(3, 3), prism(cycle(3)),
    direct_product(complete(2), complete(4)).base, direct_product(complete(3), complete(3)).base,
    cycle(5), cycle(6), cycle(7), cycle(8),
]


def test_a_light_labeling_of_a_regular_graph_has_a_rich_2():
    # the lemma behind the star parts, by a scan of all 3^n labelings: every
    # valid labeling of weight w < n with (Delta - 1) w < 2n has a 2 whose
    # neighbours are all 0 but one. A cycle has no valid labeling lighter
    # than n, and K3 x K3 none lighter than 6 = 2n / (Delta - 1), so the
    # lemma holds there with nothing to check.
    checked = {}
    for g in _SMALL_VERTEX_TRANSITIVE:
        assert _is_vertex_transitive(g)
        delta = g.max_degree()
        nbrs = [bits_of(g.adj[v]) for v in range(g.n)]
        checked[g.name] = 0
        for labels in itertools.product((0, 1, 2), repeat=g.n):
            weight = sum(labels)
            if (weight >= g.n or (delta - 1) * weight >= 2 * g.n
                    or not is_total_roman_dominating(LabelFunction(g, labels))):
                continue
            checked[g.name] += 1
            assert any(lab == 2 and sum(labels[u] == 0 for u in nbrs[v]) == delta - 1
                       for v, lab in enumerate(labels)), (g.name, labels)
    assert [name for name, count in checked.items() if count] == [
        "K4", "K5", "K3,3", "prism(C3)", "K2xK4"]


def test_the_window_ends_below_a_weight_without_a_rich_2():
    # K3 x K3: n = 9 and Delta = 4, so the window ends at (2n - 1) // 3 = 5.
    # At 6 = 2n / (Delta - 1) the lemma's count is met with equality: the
    # optima with three 2s have no rich 2, and the star parts reach two 2s.
    g = direct_product(complete(3), complete(3)).base
    sg = _SearchGraph(g)
    assert sg.window == 5 and sg.star is not None
    value, optima = _optimal_labelings(g)
    assert value == 6 and max(labels.count(2) for labels in optima) == 3
    deadline = solve._Deadline(0)
    assert _search(sg, sg.star, TWOS, -1, 6, False, deadline)[1] == 2
    two_twos = next(labels for labels in optima if labels.count(2) == 2)
    assert solve._most_twos(sg, 6, two_twos, deadline)[0] == 3


def test_the_star_parts_take_one_vertex_of_each_orbit_of_the_neighbours_of_r():
    def parts(g):
        return [_fixed_labels(state) for state in _SearchGraph(g).star]

    # N(0) = {6, 9, 21, 24} is one orbit of the maps that fix vertex 0
    assert parts(direct_product(cycle(5), cycle(5)).base) == [
        {0: 2, 6: lab, 9: 0, 21: 0, 24: 0} for lab in (1, 2)]
    # in prism(C7), the rung neighbour 1 is an orbit of its own, apart from
    # the cycle neighbours 2 and 12
    assert parts(prism(cycle(7))) == [
        {0: 2, 1: 1, 2: 0, 12: 0}, {0: 2, 1: 2, 2: 0, 12: 0},
        {0: 2, 1: 0, 2: 1, 12: 0}, {0: 2, 1: 0, 2: 2, 12: 0}]
    assert _SearchGraph(direct_product(complete(3), wheel(6)).base).star is None


# vertex-transitive graphs whose solves search the star parts; in prism(C7)
# and C16(1,2), N(r) falls into two orbits of the maps that fix r, and
# their max-2s solve (prism(C7)) or exact solve (C16(1,2)) needs the second
_STAR_GRAPHS = [direct_product(cycle(m), cycle(n)).base
                for m in range(3, 7) for n in range(m, 7)] + [
    direct_product(complete(3), cycle(5)).base,
    direct_product(complete(3), cycle(7)).base,
    direct_product(complete(4), cycle(5)).base,
    direct_product(complete(4), complete(4)).base,
    direct_product(prism(cycle(3)), cycle(4)).base,
    prism(cycle(7)),
    _circulant(16, (1, 2)),
]


@pytest.mark.parametrize("g", _STAR_GRAPHS, ids=lambda g: g.name)
def test_the_star_parts_keep_values_and_witnesses(monkeypatch, g):
    # the same value, 2-count and witness as searches from sg.root alone,
    # which a search graph takes when it finds no vertex-transitivity
    star = _exact_and_most_twos(g)
    with monkeypatch.context() as plain:
        plain.setattr(_SearchGraph, "two_at_r", None)
        assert _exact_and_most_twos(g) == star
    if g.n <= 12:
        best, labels, table = _brute_scan(g)
        assert star[:3] == (best, labels, table[best])


def test_the_root_policy_keeps_the_best_2_count_of_every_weight():
    # a MAX_TWOS search from sg.parts(w) finds the scan's best 2-count at
    # every weight w from gamma_tR up to |free| - 1: the star parts in the
    # window, the 2 at r above it
    above_window = 0
    for g in _SMALL_VERTEX_TRANSITIVE + [g for g in _STAR_GRAPHS if g.n <= 12]:
        sg = _SearchGraph(g)
        assert sg.two_at_r is not None
        best, _, table = _brute_scan(g)
        for w in range(best, g.n):
            parts = sg.parts(w)
            assert parts == (sg.star if w <= sg.window else [sg.two_at_r])
            found, twos, labels = _search(sg, parts, TWOS, -1, w, False, solve._Deadline(0))
            assert twos == table[w], (g.name, w)
            if found:
                assert sum(labels) == w and labels.count(2) == twos
                assert is_total_roman_dominating(LabelFunction(g, labels))
            above_window += w > sg.window and table[w] >= 0
    assert above_window


def _catalog_products(max_n):
    graphs = enumerate_catalog(max_n).graphs
    return [direct_product(g, h).base for i, g in enumerate(graphs) for h in graphs[i:]]


# bipartite factors, so each product has two components
_DISCONNECTED_PRODUCTS = [
    direct_product(g, h).base for g, h in [
        (cycle(6), cycle(6)), (cycle(4), cycle(8)), (path(6), path(6)),
        (complete_bipartite(3, 3), cycle(6)), (cycle(6), cycle(8))]]


@pytest.mark.parametrize("g", _catalog_products(4) + _DISCONNECTED_PRODUCTS,
                         ids=lambda g: f"{g.name}-{g.n}")
def test_components_solved_in_place_match_solves_of_their_copies(monkeypatch, g):
    # A component is solved as a vertex mask of the whole graph. Solving an
    # induced copy of each component on its own and stitching the labels
    # back by index must give the same value, 2-count and witness, after
    # the same kernel nodes.
    seen = {"bnb_min_weight": 0, "bnb_max_twos": 0}
    for name in seen:
        def counting(*args, kernel=getattr(_kernels, name), name=name):
            before = args[11][4]
            status = kernel(*args)
            seen[name] += args[11][4] - before
            return status

        monkeypatch.setattr(_kernels, name, counting)

    def nodes_of(solves):
        start = dict(seen)
        out = solves()
        return out, {name: seen[name] - start[name] for name in seen}

    for solver in (gamma_tr_exact, gamma_tr_max_v2):
        whole, whole_nodes = nodes_of(lambda: solver(g, budget=60))

        def copies():
            value = twos = 0
            labels = [-1] * g.n
            for comp in connected_components(g):
                vertices = bits_of(comp)
                part = solver(_induced_subgraph(g, vertices), budget=60)
                value += part.value
                twos += part.max_v2 or 0
                for i, v in enumerate(vertices):
                    labels[v] = part.witness.labels[i]
            return value, twos, tuple(labels)

        stitched, copies_nodes = nodes_of(copies)
        assert (whole.value, whole.max_v2 or 0, whole.witness.labels) == stitched
        assert whole_nodes == copies_nodes


def test_orbits_are_found_inside_one_component():
    g = direct_product(cycle(6), cycle(6)).base
    pair = _SearchGraph(g).pair
    even, odd = connected_components(g)
    assert even & 1 and odd >> 1 & 1
    for comp in (even, odd):
        assert in_one_orbit(g, pair, [0] * g.n, bits_of(comp))
    # a target in the other component is in no orbit of the first one's
    assert not in_one_orbit(g, pair, [0] * g.n, [0, 2, 7, 1])
    assert not in_one_orbit(g, pair, [0] * g.n, [1, 0])
    # the other component is fixed pointwise, so its colours constrain nothing
    colour = [0] * g.n
    colour[1] = 1
    assert in_one_orbit(g, pair, colour, bits_of(even))
    assert not _is_vertex_transitive(g)


def _symmetric_fixed_cases(count, seed):
    rng = random.Random(seed)
    graphs = _random_circulants(8, seed=seed, low=6, high=9) + [
        direct_product(complete(3), complete(3)).base, complete_bipartite(4, 4)]
    cases = []
    while len(cases) < count:
        g = rng.choice(graphs)
        fixed_vertices = rng.sample(range(g.n), rng.randint(1, 3))
        cases.append((g, {v: rng.choice((0, 1, 2)) for v in fixed_vertices}))
    return cases


@pytest.mark.parametrize("g,fixed", _symmetric_fixed_cases(30, seed=2026),
                         ids=lambda x: getattr(x, "name", None))
def test_orbital_fixing_from_fixed_labels_agrees_with_a_scan_of_completions(
        monkeypatch, g, fixed):
    # vertex-transitive graphs, where the orbital rule fixes labels below
    # any fixed set and under every weight cap, not only the optimal one
    monkeypatch.setattr(solve, "_FIRST_CHUNK", 1)
    _assert_searches_agree_with_a_scan_of_completions(g, fixed)
