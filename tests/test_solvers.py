import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies

from trdprod import _kernels, solve
from trdprod.catalog import enumerate_catalog
from trdprod.errors import ConsistencyError, SizeLimitError, SolverTimeout
from trdprod.families import (complete, complete_bipartite, cycle, fan, path,
                              prism, star, wheel)
from trdprod.graph import (Graph, bits_of, connected_components, direct_product,
                           from_edge_list, in_one_orbit, is_regular, mask_of, pair_table)
from trdprod.labeling import (LabelFunction, VertexSet, is_open_packing, is_packing,
                              is_total_dominating, is_total_roman_dominating)
from trdprod.solve import (_SearchGraph, _brute_scan, _fix, _orbital_fix, _search, _strands,
                           gamma_t_exact, gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2,
                           greedy_total_dominating_set, maximum_open_packings, rho_exact,
                           rho_o_exact, rho_o_set_inducing_perfect_matching,
                           trdf_pareto_frontier, trivial_lower_bound)

TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)], "2K2")
MIN, TWOS = _kernels.MIN_WEIGHT, _kernels.MAX_TWOS


def _fixed_state(adj, fixed):
    """The state of a dict of fixed labels, _fix folded over it from no label; None when dead."""
    n = len(adj)
    state = (0, 0, 0, 0, 0, 0, (1 << n) - 1, [-1] * n)
    for v, lab in fixed.items():
        state = _fix(adj, state, v, lab)
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
        d = greedy_total_dominating_set(g)
        assert is_total_dominating(d)
    # gain ties break toward the highest index, leaving the low vertices,
    # where the lexicographically first optimum puts its 0s, out of the seed
    assert greedy_total_dominating_set(cycle(4)).vertices() == (2, 3)
    assert greedy_total_dominating_set(cycle(6)).vertices() == (2, 3, 4, 5)


def test_maximum_open_packings_and_matching_flag():
    packs = maximum_open_packings(cycle(4))
    assert all(p.size == 2 for p in packs)
    s = rho_o_set_inducing_perfect_matching(path(4))
    assert s is not None
    assert all((path(4).adj[v] & s.members).bit_count() == 1 for v in s.vertices())
    # star: the unique maximum open packing {center, leaf} induces one edge
    assert rho_o_set_inducing_perfect_matching(star(3)) is not None
    # 2K2: rho_o-set is everything, inducing two disjoint edges
    assert rho_o_set_inducing_perfect_matching(TWO_K2) is not None


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
    # the trivial floor equals the greedy seed, which is the lexicographically
    # first optimum and has value // 2 twos, so nothing searches
    (direct_product(cycle(4), prism(cycle(3))).base, 0, 0),
    (direct_product(complete(3), wheel(6)).base, 1139, 80),
    # K4,9 and K6,6: K6,6's seed meets its floor of 4, K4,9's proof visits
    # 3 nodes, and the lex probes that the look-ahead does not answer 6
    (direct_product(complete_bipartite(2, 3), complete_bipartite(2, 3)).base, 9, 6),
    # vertex-transitive, so its proof starts from a 2 at vertex 0, which the
    # orbital rule splits on one neighbour of vertex 0 before any node
    (direct_product(cycle(5), cycle(4)).base, 765, 0),
    # irregular, and the knapsack Roman cover bound prunes more than
    # ceil(2|S|/cmax) would under both objectives (3,672 and 384 nodes)
    (direct_product(fan(6), cycle(4)).base, 2085, 126),
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


@pytest.mark.parametrize("g", _random_isolate_free_graphs(40, seed=2020) + SOLVE_PRODUCTS,
                         ids=lambda g: g.name)
def test_the_seeded_max_twos_pass_agrees_with_the_unseeded_one(g):
    # the max-2s pass starts from the 2-count of the proof's witness, a real
    # labeling of the optimal weight, so it finds the same best 2-count and
    # only prunes more than a pass that starts from none
    whole = _SearchGraph(g)
    comps = connected_components(g)
    seed = greedy_total_dominating_set(g).members
    for comp in comps:
        sg = whole if len(comps) == 1 else _SearchGraph(g, comp, whole)
        value, witness = solve._gamma_tr_value(sg, seed, solve._Deadline(0))
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
    # the slot-0 masks computed from their definitions
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
        if dead:
            continue
        labels = [fixed.get(v, -1) for v in range(g.n)]
        assert state == (sum(fixed.values()), twos.bit_count(), cov, pos, un0, unp, und, labels)
        # a state is never changed in place
        free = [v for v in range(g.n) if v not in fixed]
        if free:
            _fix(g.adj, state, rng.choice(free), rng.choice((0, 1, 2)))
            assert state[7] == labels


def _has_completion(g, fixed):
    """Whether some total Roman dominating labeling keeps fixed, by a scan of all 3^free."""
    free = [v for v in range(g.n) if v not in fixed]
    for labs in itertools.product((0, 1, 2), repeat=len(free)):
        labels = [fixed.get(v, 0) for v in range(g.n)]
        for v, lab in zip(free, labs):
            labels[v] = lab
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
                child = _fix(g.adj, state, v, 0)
                if child is not None and _strands(g.adj, child, v):
                    rejected += 1
                    assert not _has_completion(g, {**fixed, v: 0}), (g.name, fixed, v)
    assert rejected >= 100


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
    bst = [2 * g.n + 1, 0, 0, 0, 0, 0]
    bit = [1 << v for v in range(g.n)]
    _kernels.brute_force_scan(g.adj, bit, [0] * g.n, [-1] * g.n, table, bst, 10 ** 9)
    assert bst[3] == _kernels.DONE
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


def _random_circulants(count, seed, low, high):
    """Distinct connected circulants: vertex v is joined to v + j mod n for each jump j."""
    rng = random.Random(seed)
    picked = set()
    while len(picked) < count:
        n = rng.randint(low, high)
        jumps = tuple(sorted(rng.sample(range(1, n // 2 + 1), rng.randint(1, 3))))
        if math.gcd(n, *jumps) == 1:
            picked.add((n, jumps))
    return [from_edge_list(n, [(v, (v + j) % n) for v in range(n) for j in jumps],
                           f"Ci{n}({','.join(map(str, jumps))})")
            for n, jumps in sorted(picked)]


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
    # C5 x C5's proof splits its root, a 2 at vertex 0, before any node, and
    # its two parts end without a fix. The first lex probe to outlast its
    # first chunk, vertices 0-4 all 0, is dropped for two reduced searches.
    # The clock then reads far past the deadline, and the first reduced
    # search times out.
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
    assert fixes[0] == (0, {0: 2}, [{0: 2, 6: 2}, {0: 2, 6: 1}])
    chunk, fixed, parts = fixes[-1]
    assert fixed == {v: 0 for v in range(5)} and len(parts) == 2
    assert chunk >= solve._FIRST_CHUNK
    assert err.value.nodes == nodes[0] > chunk
    # the proof had ended, so only the witness was pending
    assert err.value.lower_bound == err.value.upper_bound == 15


def test_a_timeout_in_a_part_of_the_split_proof_root_carries_the_floor(monkeypatch):
    # the first part of C5 x C5's split root runs one chunk and then finds
    # the clock far past the deadline
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
