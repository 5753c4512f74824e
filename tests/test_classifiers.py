import itertools

import pytest

from trdprod.bounds import factor_profile
from trdprod.catalog import enumerate_catalog
from trdprod.classify import (certify_regular_eod_product, classify_small_product,
                              is_eod_graph)
from trdprod.errors import HypothesisError, SizeLimitError
from trdprod.families import (complete, complete_bipartite,
                              complete_minus_matching, cycle, fan, path, prism,
                              star, wheel)
from trdprod.graph import (central_triangle, direct_product, from_edge_list,
                           is_k2, universal_vertex_list)
from trdprod.labeling import (VertexSet, eod_by_unit_neighbor_count, is_total_dominating,
                              is_total_roman_dominating)
from trdprod.solve import gamma_t_exact, gamma_tr_bruteforce, gamma_tr_exact

TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)], "2K2")


def test_universal_vertices():
    assert universal_vertex_list(complete(4)) == [0, 1, 2, 3]
    assert universal_vertex_list(wheel(6)) == [0]
    assert universal_vertex_list(cycle(4)) == []


def test_triangle_centered_detection():
    assert central_triangle(complete(3)) == (0, 1, 2)
    assert central_triangle(wheel(4)) is not None
    assert central_triangle(wheel(5)) is not None
    assert central_triangle(wheel(6)) is None
    assert central_triangle(fan(5)) is not None
    assert central_triangle(fan(6)) is None
    assert central_triangle(cycle(5)) is None
    assert central_triangle(complete_minus_matching(7)) is not None


def test_central_triangle_gives_small_total_domination():
    for g in [complete(3), complete(5), wheel(5), fan(4), complete_minus_matching(5)]:
        wit = central_triangle(g)
        assert wit is not None
        x, y, z = wit
        for pair in [(x, y), (x, z), (y, z)]:
            assert is_total_dominating(VertexSet.from_vertices(g, pair))
        assert gamma_t_exact(g).value == 2


def test_total_roman_graph_examples():
    assert factor_profile(cycle(4)).total_roman
    assert not factor_profile(path(3)).total_roman
    # gamma_t of a single edge is 2 while the optimal labeling weighs 2, so
    # the doubling identity fails on K2
    assert not factor_profile(complete(2)).total_roman


def test_eod_search_examples():
    assert is_eod_graph(cycle(8)).size == 4
    assert is_eod_graph(cycle(6)) is None
    assert is_eod_graph(cycle(5)) is None
    assert is_eod_graph(prism(cycle(3))).size == 2
    assert is_eod_graph(prism(cycle(6))).size == 4
    assert is_eod_graph(star(3)).size == 2
    assert is_eod_graph(complete(2)).size == 2
    assert is_eod_graph(TWO_K2).size == 4


def test_eod_requires_no_isolated():
    with pytest.raises(HypothesisError):
        is_eod_graph(from_edge_list(3, [(0, 1)]))


@pytest.mark.parametrize("n", [22, 24])
def test_eod_search_past_the_subset_limit_is_a_size_limit_error(n):
    with pytest.raises(SizeLimitError):
        is_eod_graph(cycle(n))


def test_eod_size_matches_gamma_t_across_catalog():
    graphs = (list(enumerate_catalog(5).graphs) + [cycle(n) for n in range(3, 15)]
              + [path(n) for n in range(2, 13)])
    for g in graphs:
        # the first set a literal scan of every subset, smallest first, accepts
        scan = (VertexSet.from_vertices(g, c)
                for k in range(1, g.n + 1) for c in itertools.combinations(range(g.n), k))
        first = next((s for s in scan if eod_by_unit_neighbor_count(s)), None)
        s = is_eod_graph(g)
        if first is None:
            assert s is None, g.name
        else:
            assert s.members == first.members, g.name
            assert s.size == gamma_t_exact(g).value


VERDICTS = [
    (complete(2), complete(2), 4, "ii"),
    (complete(3), complete(4), 6, "iii_universal"),
    (complete(2), complete(3), 6, "iii_universal"),
    (complete(2), path(3), 6, "iii_k2"),
    (complete_minus_matching(7), complete_minus_matching(7), 6, "iii_triangle"),
    (path(3), path(3), 7, "iv"),
    (star(2), star(3), 7, "iv"),
    (complete(3), wheel(6), 7, "iv"),
    (complete(3), fan(6), 7, "iv"),
    (complete_bipartite(2, 2), complete_bipartite(2, 3), 8, "v"),
    (complete(3), complete_bipartite(2, 2), 8, "v"),
    (path(4), path(4), 8, "v"),
    # clause v needs only a total dominating edge per factor, so factors past
    # the subset-enumeration limit keep their verdict (gamma_tr_exact gives 8)
    (cycle(4), complete_bipartite(2, 19), 8, "v"),
    (cycle(4), complete_minus_matching(22), 8, "v"),
    # wheels keep their universal hub, so two big wheels land on the
    # weight-7 case (cross-checked against the exact solver on W6xW6)
    (wheel(6), wheel(7), 7, "iv"),
]


@pytest.mark.parametrize("g,h,value,rule", VERDICTS,
                         ids=lambda x: getattr(x, "name", x))
def test_small_verdicts(g, h, value, rule):
    verdict = classify_small_product(g, h)
    assert verdict.value == value
    assert verdict.rule == rule


def test_small_verdict_unknown():
    verdict = classify_small_product(complete(2), TWO_K2)
    assert verdict.value is None and verdict.rule == "unknown"


def test_verdicts_match_bruteforce_on_small_products():
    pairs = [(complete(2), complete(2)), (complete(2), complete(3)),
             (complete(3), complete(3)), (path(3), path(3)),
             (complete(3), complete(4)), (path(3), complete(3))]
    for g, h in pairs:
        verdict = classify_small_product(g, h)
        assert verdict.value == gamma_tr_bruteforce(direct_product(g, h).base).value


def test_regular_eod_certificates():
    cert = certify_regular_eod_product(cycle(4), cycle(8))
    assert cert.value == 16 and cert.method == "certificate"

    cert = certify_regular_eod_product(cycle(4), complete_bipartite(2, 2))
    assert cert.value == 8
    assert gamma_tr_exact(direct_product(cycle(4), complete_bipartite(2, 2)).base,
                          budget=120).value == 8

    cert = certify_regular_eod_product(cycle(4), prism(cycle(3)))
    assert cert.value == 8

    # degree-1 regular factors are excluded: K2 x K2 is two single edges,
    # whose all-1 labeling weighs 4, not 2*gamma_t*gamma_t = 8
    assert certify_regular_eod_product(complete(2), complete(2)) is None


def test_no_product_certificate_without_regular_eod_factors():
    # K1,3 has an efficient open dominating set but is not regular; C5 is
    # 2-regular but has no efficient open dominating set
    assert is_eod_graph(star(3)) is not None
    assert certify_regular_eod_product(star(3), cycle(4)) is None
    assert is_eod_graph(cycle(5)) is None
    assert certify_regular_eod_product(cycle(5), cycle(4)) is None


@pytest.mark.parametrize("g,h", itertools.combinations_with_replacement(
    [cycle(4), cycle(8), prism(cycle(3))], 2), ids=lambda g: g.name)
def test_product_certificate_agrees_with_exact(g, h):
    # products of 16 to 64 vertices, each factor 2- or 3-regular with an
    # efficient open dominating set
    cert = certify_regular_eod_product(g, h)
    product = direct_product(g, h).base
    assert cert.method == "certificate"
    assert cert.value == gamma_tr_exact(product, budget=60).value
    assert cert.witness.graph == product
    assert cert.witness.weight == cert.value and is_total_roman_dominating(cert.witness)


def test_is_k2():
    assert is_k2(complete(2))
    assert not is_k2(path(3))
    assert not is_k2(from_edge_list(2, []))
