import pytest

from trdprod import labeling
from trdprod.catalog import enumerate_catalog
from trdprod.classify import classify_small_product, is_eod_graph
from trdprod.construct import (SMALL_CASES, product_eod_set,
                               product_trdf_from_factors,
                               product_trdf_from_total_dom_sets, small_clause,
                               small_value_construction)
from trdprod.errors import ConsistencyError, HypothesisError, PreconditionError
from trdprod.families import complete, complete_bipartite, cycle, path, star
from trdprod.graph import direct_product
from trdprod.labeling import (LabelFunction, VertexSet,
                              is_efficient_open_dominating,
                              is_total_roman_dominating)
from trdprod.solve import gamma_t_exact, gamma_tr_bruteforce, gamma_tr_exact


def test_factor_combination_examples():
    p3 = LabelFunction(path(3), (0, 2, 1))
    out = product_trdf_from_factors(p3, p3)
    assert out.weight == 3 * 3 - 2 * 1 * 1 == 7

    all1 = LabelFunction(complete(2), (1, 1))
    out = product_trdf_from_factors(all1, all1)
    assert out.weight == 4 and len(out.v2) == 0

    p4 = LabelFunction(path(4), (0, 2, 2, 0))
    out = product_trdf_from_factors(p4, p4)
    assert out.weight == 16 - 2 * 4 == 8
    assert gamma_tr_exact(out.graph, budget=60).value == 8


def test_factor_combination_rejects_invalid_input():
    bad = LabelFunction(path(3), (0, 1, 2))
    good = LabelFunction(path(3), (0, 2, 1))
    with pytest.raises(PreconditionError):
        product_trdf_from_factors(bad, good)


_BUILDS = [
    (lambda: product_trdf_from_factors(LabelFunction(path(3), (0, 2, 1)),
                                       LabelFunction(cycle(4), (2, 2, 0, 0))),
     "factor-combination labeling failed verification"),
    (lambda: product_trdf_from_total_dom_sets(
        VertexSet.from_vertices(cycle(4), [0, 1]), VertexSet.from_vertices(path(3), [0, 1])),
     "total-dominating-set product labeling failed verification"),
    (lambda: small_value_construction("iv", star(2), star(3)),
     "case iv labeling failed verification"),
]


@pytest.mark.parametrize("build,message", _BUILDS, ids=["factors", "tdsets", "small_iv"])
def test_each_builder_rechecks_its_labeling(monkeypatch, build, message):
    # each builder's output passes labeling.verified, which reads the
    # predicate patched here; the builders' own input checks do not
    assert is_total_roman_dominating(build())
    monkeypatch.setattr(labeling, "is_total_roman_dominating", lambda f: False)
    with pytest.raises(ConsistencyError, match=message):
        build()


def test_total_dom_set_products():
    d_c4 = gamma_t_exact(cycle(4)).witness
    out = product_trdf_from_total_dom_sets(d_c4, d_c4)
    assert out.weight == 8

    d_k2 = gamma_t_exact(complete(2)).witness
    d_p3 = gamma_t_exact(path(3)).witness
    out = product_trdf_from_total_dom_sets(d_k2, d_p3)
    assert out.weight == 8  # upper bound only; the true optimum there is 6
    assert gamma_tr_exact(direct_product(complete(2), path(3)).base).value == 6

    d_k22 = gamma_t_exact(complete_bipartite(2, 2)).witness
    assert product_trdf_from_total_dom_sets(d_k22, d_k22).weight == 8


def test_total_dom_set_product_rejects_non_dominating():
    with pytest.raises(PreconditionError):
        product_trdf_from_total_dom_sets(VertexSet.from_vertices(path(4), [0]),
                                         gamma_t_exact(path(4)).witness)


def test_eod_products():
    c4 = is_eod_graph(cycle(4))
    out = product_eod_set(c4, c4)
    assert out.size == 4 and is_efficient_open_dominating(out)

    c8 = is_eod_graph(cycle(8))
    out = product_eod_set(c4, c8)
    assert out.size == 8 and is_efficient_open_dominating(out)

    k2 = is_eod_graph(complete(2))
    out = product_eod_set(k2, k2)
    assert out.size == 4  # the whole of the double edge pair


def test_eod_product_rejects_non_eod():
    with pytest.raises(PreconditionError):
        product_eod_set(VertexSet.from_vertices(cycle(4), [0, 2]),
                        is_eod_graph(cycle(4)))


def test_small_value_cases():
    # the labels each clause lays, row-major over (G vertex, H vertex)
    cases = [("ii", complete(2), complete(2), 4, [1, 1, 1, 1]),
             ("iii_universal", complete(3), complete(4), 6,
              [2, 1, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0]),
             ("iii_k2", complete(2), path(3), 6, [1, 2, 0, 1, 2, 0]),
             ("iii_k2", path(3), complete(2), 6, [1, 1, 2, 2, 0, 0]),
             ("iii_triangle", complete(3), complete(3), 6, [2, 0, 0, 0, 2, 0, 0, 0, 2]),
             ("iv", star(2), star(3), 7, [2, 2, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]),
             ("iv", star(3), star(2), 7, [2, 2, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0])]
    for case, g, h, weight, labels in cases:
        out = small_value_construction(case, g, h)
        assert out.weight == weight and list(out.labels) == labels, (case, g, h)
    assert gamma_tr_bruteforce(small_value_construction(
        "iii_triangle", complete(3), complete(3)).graph).value == 6
    assert gamma_tr_bruteforce(small_value_construction(
        "iii_k2", complete(2), path(3)).graph).value == 6


def test_small_value_hypothesis_errors_name_the_clause():
    with pytest.raises(PreconditionError, match="K2"):
        small_value_construction("ii", complete(3), complete(2))
    with pytest.raises(PreconditionError, match="universal"):
        small_value_construction("iii_universal", path(4), complete(3))
    with pytest.raises(PreconditionError, match="triangle"):
        small_value_construction("iii_triangle", path(3), complete(3))
    with pytest.raises(PreconditionError, match="iv"):
        small_value_construction("iv", complete_bipartite(2, 2), path(3))


def test_small_case_witnesses_reject_isolated_vertices():
    # K1 x K1,3 meets clause iv's literal hypothesis, but K1's vertex has no
    # neighbor to serve as a witness and the product has no total Roman labeling
    with pytest.raises(HypothesisError):
        small_value_construction("iv", complete(1), star(3))


def test_classify_and_construct_agree_on_the_catalog():
    graphs = enumerate_catalog(4).graphs
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            verdict = classify_small_product(g, h)
            for case, weight in SMALL_CASES.items():
                found = small_clause(case, g, h)
                if found is None:
                    assert verdict.rule != case
                    with pytest.raises(PreconditionError):
                        small_value_construction(case, g, h)
                    continue
                built = small_value_construction(case, g, h)
                assert built.weight == weight and is_total_roman_dominating(built)
                if verdict.rule == case:
                    assert found[0] == verdict.witnesses
                    assert weight == verdict.value


def test_construction_weights_never_beat_the_optimum():
    pairs = [(complete(3), complete(3)), (path(3), path(3)), (cycle(4), cycle(4))]
    for g, h in pairs:
        exact = gamma_tr_exact(direct_product(g, h).base, budget=60).value
        d = product_trdf_from_total_dom_sets(gamma_t_exact(g).witness,
                                             gamma_t_exact(h).witness)
        assert d.weight >= exact
