import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies

from trdprod import _kernels, solve
from trdprod.catalog import enumerate_catalog
from trdprod.errors import SizeLimitError, SolverTimeout
from trdprod.families import (complete, complete_bipartite, cycle, fan, path,
                              prism, star, wheel)
from trdprod.graph import (connected_components, direct_product, from_edge_list,
                           in_one_orbit, induced_subgraph, is_vertex_transitive)
from trdprod.labeling import (LabelFunction, is_open_packing, is_packing,
                              is_total_dominating, is_total_roman_dominating)
from trdprod.solve import (_SearchArrays, _SearchGraph, _brute_scan, _max_twos_search,
                           _min_weight_search, _orbital_fix, gamma_t_exact,
                           gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2,
                           greedy_total_dominating_set, maximum_open_packings,
                           rho_exact, rho_o_exact,
                           rho_o_set_inducing_perfect_matching,
                           trdf_pareto_frontier, trdf_with_weight_max_v2,
                           trivial_lower_bound)

TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)], "2K2")


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
        best, _, table = _brute_scan(g, 12)
        res = gamma_tr_max_v2(g, budget=60)
        assert res.value == best and res.max_v2 == table[best]
        frontier = trdf_pareto_frontier(g, weight_cap=2 * g.n, budget=60)
        assert [(p.weight, p.max_v2) for p in frontier] == \
            [(w, table[w]) for w in range(best, 2 * g.n + 1) if table[w] >= 0], g.name


def test_upper_bound_hint_does_not_change_result():
    g = direct_product(cycle(4), cycle(4)).base
    plain = gamma_tr_exact(g, budget=60)
    hinted = gamma_tr_exact(g, budget=60, upper_bound_hint=8)
    assert plain.value == hinted.value == 8
    assert plain.witness.labels == hinted.witness.labels


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
    for g in [path(4), cycle(5), star(3), complete(4), prism(cycle(3))]:
        t = gamma_t_exact(g)
        assert is_total_dominating(t.witness) and t.witness.size == t.value
        p = rho_exact(g)
        assert is_packing(p.witness) and p.witness.size == p.value
        o = rho_o_exact(g)
        assert is_open_packing(o.witness) and o.witness.size == o.value


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


def test_pareto_frontier_matches_weight_constrained_search():
    for g in [path(4), cycle(5), star(3)]:
        for point in trdf_pareto_frontier(g):
            f = trdf_with_weight_max_v2(g, point.weight)
            assert f is not None
            assert f.weight == point.weight and len(f.v2) == point.max_v2


def test_greedy_total_dominating_set_is_valid():
    for g in [path(5), cycle(7), wheel(6), prism(cycle(4)), TWO_K2]:
        d = greedy_total_dominating_set(g)
        assert is_total_dominating(d)


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

    monkeypatch.setattr(solve, "_max_twos_search", out_of_time)
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_max_v2(direct_product(complete(3), complete(3)).base, budget=60)
    assert err.value.lower_bound == err.value.upper_bound == 6
    # disconnected: the proven component plus floor and greedy bounds on the other
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_max_v2(direct_product(cycle(4), cycle(4)).base, budget=60)
    assert err.value.lower_bound <= 8 <= err.value.upper_bound


@pytest.mark.parametrize("g,min_nodes,twos_nodes", [
    # the trivial floor equals the greedy seed, so only the lex probes search
    (direct_product(cycle(4), prism(cycle(3))).base, 27, 72),
    (direct_product(complete(3), wheel(6)).base, 1115, 230),
    # the only pinned product whose cover bounds scan long undecided lists;
    # vertex-transitive, so its proof starts from a 2 at vertex 0, and the
    # orbital rule then splits it on one neighbour of vertex 0
    (direct_product(cycle(5), cycle(4)).base, 1739, 60),
    # irregular, and the knapsack Roman cover bound prunes more than
    # ceil(2|S|/cmax) would under both objectives (3,579 and 384 nodes)
    (direct_product(fan(6), cycle(4)).base, 2154, 300),
], ids=["C4xprismC3", "K3xW6", "C5xC4", "F6xC4"])
def test_search_visits_a_fixed_number_of_nodes(monkeypatch, g, min_nodes, twos_nodes):
    # node totals are independent of how the search is cut into chunks
    # between clock reads
    seen = {"bnb_min_weight": 0, "bnb_max_twos": 0}
    for name in seen:
        def counting(*args, kernel=getattr(_kernels, name), name=name):
            before = int(args[11][4])
            status = kernel(*args)
            seen[name] += int(args[11][4]) - before
            return status

        monkeypatch.setattr(_kernels, name, counting)
    gamma_tr_exact(g, budget=60)
    assert seen["bnb_min_weight"] == min_nodes
    gamma_tr_max_v2(g, budget=60)
    assert seen["bnb_max_twos"] == twos_nodes


def test_a_timeout_reports_the_nodes_of_every_search_of_the_solve(monkeypatch):
    # The proof runs to completion; the first lex probe stops after one node
    # and then finds the clock far past the deadline, so the timeout comes
    # from the probe and must count the proof's nodes too.
    proof_nodes = [0]
    late = []
    kernel = _kernels.bnb_min_weight

    def stepping(*args):
        st = args[11]
        if st[9]:
            late.append(True)
            return kernel(*args[:-1], 1)
        before = st[4]
        status = kernel(*args)
        proof_nodes[0] += st[4] - before
        return status

    monkeypatch.setattr(_kernels, "bnb_min_weight", stepping)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if late else 0)))
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(cycle(5), cycle(4)).base, budget=60)
    assert late and proof_nodes[0] > 0
    assert err.value.nodes > proof_nodes[0]
    assert err.value.lower_bound == err.value.upper_bound == 12


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


@pytest.mark.parametrize("g", _random_isolate_free_graphs(40, seed=2020),
                         ids=lambda g: g.name)
def test_search_agrees_with_the_scan_on_random_graphs(g):
    # guards the kernels and the lexicographic probes, which start from fixed labels
    _assert_search_agrees_with_the_scan(g)


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
    best, _, table = _brute_scan(g, 12)
    for graph in (g, h):
        assert gamma_tr_exact(graph, budget=60).value == best
        result = gamma_tr_max_v2(graph, budget=60)
        assert result.value == best and result.max_v2 == table[best]


def _assert_search_agrees_with_the_scan(g):
    best, labels, table = _brute_scan(g, 12)
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
    found, best, labels = _min_weight_search(sg, fixed, 2 * g.n + 1, False, None)
    assert found == bool(valid)
    if not valid:
        return
    low = min(w for w, _ in valid)
    assert best == low and completes(labels) and sum(labels) == low
    for init_best in (low, low + 1):
        found, _, labels = _min_weight_search(sg, fixed, init_best, True, None)
        assert found == (low < init_best)
        if found:
            assert completes(labels) and sum(labels) < init_best
    for cap in sorted({w for w, _ in valid} | {low - 1}):
        twos = max((t for w, t in valid if w == cap), default=None)
        found, best, labels = _max_twos_search(sg, fixed, cap, -1, False, None)
        assert found == (twos is not None)
        if not found:
            continue
        assert best == twos and completes(labels)
        assert sum(labels) == cap and labels.count(2) == twos
        assert _max_twos_search(sg, fixed, cap, twos - 1, True, None)[0]
        assert not _max_twos_search(sg, fixed, cap, twos, True, None)[0]


def test_eod_product_certificate_case():
    # the 2K2 product of two single edges: optimum is all-1, never uses a 2
    best, labels, table = _brute_scan(TWO_K2, 12)
    assert best == 4 and table[4] == 0
    assert labels == (1, 1, 1, 1)


def _run_pair(g):
    arrs = _SearchArrays(_SearchGraph(g), {})
    st = arrs.state(best=2 * g.n + 1)
    _kernels.bnb_min_weight(arrs.adj_mask, arrs.labels, arrs.order, arrs.trial, arrs.cov,
                            arrs.pos, arrs.un0, arrs.unp, arrs.bit, arrs.und,
                            arrs.best_labels, st, 10 ** 9)
    table = [-1] * (2 * g.n + 1)
    bst = [2 * g.n + 1, 0, 0, 0, 0, 0]
    _kernels.brute_force_scan(g.adj, arrs.bit, [0] * g.n, [-1] * g.n, table, bst, 10 ** 9)
    assert st[5] == bst[3] == _kernels.DONE
    return st[3], bst[0], table


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


def _components(g):
    return [induced_subgraph(g, comp) for comp in connected_components(g)]


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
    assert is_vertex_transitive(g)


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
    assert not is_vertex_transitive(g)


@pytest.mark.parametrize("g,optimum,with_two_at_0", [(FRUCHT, 8, 9), (REGULAR_8, 4, 5)],
                         ids=lambda x: getattr(x, "name", x))
def test_a_regular_graph_that_is_not_vertex_transitive_keeps_its_optimum(
        g, optimum, with_two_at_0):
    # Every optimal labeling here leaves vertex 0 below 2, so a proof started
    # from a 2 at vertex 0 would report a heavier optimum.
    assert _min_weight_search(_SearchGraph(g), {0: 2}, 2 * g.n + 1, False,
                              None)[1] == with_two_at_0
    best, labels, _ = _brute_scan(g, 12)
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
        best, labels, table = _brute_scan(g, 12)
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
    assert _orbital_fix(sg, {0: 0}) == [{0: 0, 6: 2}]
    # With vertex 6 labeled 1, vertex 0's undecided neighbours fall into two
    # orbits, {9, 21} and {24}, so the rule fixes nothing.
    colour = [{0: 0, 6: 1}.get(v, -1) for v in range(g.n)]
    assert in_one_orbit(g, sg.pair, colour, [9, 21])
    assert not in_one_orbit(g, sg.pair, colour, [9, 21, 24])
    assert _orbital_fix(sg, {0: 0, 6: 1}) == []
    # a positive vertex with no positive neighbour splits the search
    assert _orbital_fix(sg, {0: 2}) == [{0: 2, 6: 2}, {0: 2, 6: 1}]


def test_a_timeout_counts_the_nodes_of_a_discarded_first_chunk(monkeypatch):
    # C5 x C5's proof from a 2 at vertex 0 outlasts its first chunk, so the
    # orbital rule drops it for two reduced searches. The clock then reads
    # far past the deadline, and the first reduced search times out.
    nodes = [0]
    fixes = []
    kernel = _kernels.bnb_min_weight
    orbital_fix = solve._orbital_fix

    def counting(*args):
        before = args[11][4]
        status = kernel(*args)
        nodes[0] += args[11][4] - before
        return status

    def recording(sg, fixed):
        parts = orbital_fix(sg, fixed)
        fixes.append((nodes[0], fixed, parts))
        return parts

    monkeypatch.setattr(_kernels, "bnb_min_weight", counting)
    monkeypatch.setattr(solve, "_orbital_fix", recording)
    monkeypatch.setattr(solve, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + (1e6 if fixes else 0)))
    with pytest.raises(SolverTimeout) as err:
        gamma_tr_exact(direct_product(cycle(5), cycle(5)).base, budget=60)
    assert fixes == [(solve._FIRST_CHUNK, {0: 2}, [{0: 2, 6: 2}, {0: 2, 6: 1}])]
    assert err.value.nodes == nodes[0] > solve._FIRST_CHUNK
    assert err.value.lower_bound == 13 and err.value.upper_bound >= 15


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
