import random

import pytest

from trdprod import families, graph
from trdprod.errors import Graph6ParseError, GraphInputError
from trdprod.families import (complete, complete_bipartite, complete_minus_matching,
                              cycle, fan, join, parse_graph_token, path, prism,
                              star, wheel)
from trdprod.graph import (GRAPH6_MAX_ORDER, Graph, _is_automorphism, direct_product,
                           from_edge_list, from_json_dict, has_isolated_vertex, is_bipartite, is_connected,
                           is_regular, is_triangle_free, mask_of)
from trdprod.graph6 import emit_graph6, parse_graph6


def test_from_edge_list_k2():
    g = from_edge_list(2, [(0, 1)])
    assert g.max_degree() == 1
    assert g.num_edges() == 1


@pytest.mark.parametrize("n,adj,match", [
    (2, (0b110, 0b001), "vertices >= n"),
    (2, (-1, 0b01), "vertices >= n"),
    (2, (0b11, 0b01), "self-loop"),
    (3, (0b010, 0b000, 0b000), "asymmetric"),
    (3, (0b10, 0b01), "adjacency length"),
], ids=["out-of-range", "negative", "self-loop", "asymmetric", "length"])
def test_bad_adjacency_is_an_input_error(n, adj, match):
    with pytest.raises(GraphInputError, match=match):
        Graph(n, adj)


def test_from_edge_list_path_degrees():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_from_edge_list_collapses_duplicates_and_keeps_isolated():
    g = from_edge_list(3, [(0, 1), (0, 1)])
    assert g.num_edges() == 1
    assert g.adj[0] == 0b010 and g.adj[1] == 0b001 and g.adj[2] == 0
    assert has_isolated_vertex(g)


@pytest.mark.parametrize("n,edges", [(2, [(0, 2)]), (3, [(-1, 0)]), (2, [(1, 1)])])
def test_from_edge_list_rejects_bad_edges(n, edges):
    with pytest.raises(GraphInputError):
        from_edge_list(n, edges)


def test_graph6_decode_single_edge():
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.has_edge(0, 1)


def test_graph6_decode_empty_three():
    g = parse_graph6("B?")
    assert g.n == 3
    assert g.num_edges() == 0


def test_graph6_cycle_round_trip():
    c4 = cycle(4)
    assert parse_graph6(emit_graph6(c4)).adj == c4.adj


def test_graph6_emit_parse_identity_random():
    rng = random.Random(20240901)
    for _ in range(200):
        n = rng.randint(1, 40)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = from_edge_list(n, edges)
        assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_graph6_parse_emit_identity_on_strings():
    for s in ["A_", "B?", "Bw", "DQo", emit_graph6(wheel(7)), emit_graph6(complete(10))]:
        assert emit_graph6(parse_graph6(s)) == s


def test_graph6_large_order_header():
    g = path(100)
    back = parse_graph6(emit_graph6(g))
    assert back.n == 100 and back.adj == g.adj


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        parse_graph6("D_")  # five vertices need two adjacency bytes
    with pytest.raises(Graph6ParseError):
        parse_graph6("")


@pytest.mark.parametrize("text,match", [("~~", "orders above"), ("~?", "truncated")])
def test_graph6_multi_byte_order_headers_past_the_limit_or_cut_short(text, match):
    # "~~" opens the eight-byte order field of orders past 258047, and "~?"
    # opens the four-byte one with its three order bytes missing
    with pytest.raises(Graph6ParseError, match=match):
        parse_graph6(text)


def test_edge_list_json_without_an_order_is_an_input_error():
    with pytest.raises(GraphInputError, match="bad edge-list JSON"):
        from_json_dict({"edges": []})


def test_direct_product_two_disjoint_edges():
    pg = direct_product(complete(2), complete(2))
    assert pg.base.n == 4
    assert pg.base.num_edges() == 2
    assert not is_connected(pg.base)


def test_direct_product_p6_p6_disconnected():
    pg = direct_product(path(6), path(6))
    assert pg.base.n == 36
    assert not is_connected(pg.base)


def test_direct_product_edge_count_formula():
    for g, h in [(cycle(4), path(3)), (complete(3), star(3)), (wheel(5), path(2))]:
        pg = direct_product(g, h)
        assert pg.base.num_edges() == 2 * g.num_edges() * h.num_edges()


def test_direct_product_degree_identity():
    g, h = cycle(4), path(3)
    pg = direct_product(g, h)
    for a in range(g.n):
        for b in range(h.n):
            assert pg.base.degree(pg.vertex_id(a, b)) == g.degree(a) * h.degree(b)


def test_direct_product_neighborhood_identity():
    for g, h in [(cycle(4), path(3)), (complete(3), complete(4)), (star(3), cycle(5))]:
        pg = direct_product(g, h)
        for a in range(g.n):
            for b in range(h.n):
                want = {pg.vertex_id(x, y) for x in g.neighbors(a) for y in h.neighbors(b)}
                assert pg.base.adj[pg.vertex_id(a, b)] == mask_of(want)


def test_layers_are_independent_sets():
    pg = direct_product(complete(3), complete(4))
    # the vertices over one vertex of either factor
    layers = ([[pg.vertex_id(a, b) for a in range(3)] for b in range(4)]
              + [[pg.vertex_id(a, b) for b in range(4)] for a in range(3)])
    for layer in layers:
        assert all(pg.base.adj[v] & mask_of(layer) == 0 for v in layer)


def test_generator_counts():
    assert path(5).num_edges() == 4
    assert cycle(6).num_edges() == 6
    assert complete(5).num_edges() == 10
    assert wheel(6).num_edges() == 10
    assert fan(6).num_edges() == 9
    assert complete_bipartite(2, 3).num_edges() == 6
    pr = prism(cycle(4))
    assert pr.n == 8 and pr.num_edges() == 2 * 4 + 4


def test_wheel_w5_unique_universal_vertex():
    g = wheel(5)
    assert g.n == 5 and g.num_edges() == 8
    assert [v for v in range(5) if g.degree(v) == 4] == [0]


def test_complete_minus_matching_k5():
    g = complete_minus_matching(5)
    assert g.n == 5 and g.num_edges() == 8
    assert [v for v in range(5) if g.degree(v) == 4] == [4]


def test_prism_over_triangle():
    g = prism(cycle(3))
    assert g.n == 6 and g.num_edges() == 9
    assert is_regular(g) and g.degree(0) == 3


def test_join_counts():
    g = join(path(2), path(3))
    assert g.n == 5 and g.num_edges() == 1 + 2 + 6


@pytest.mark.parametrize("build,arg", [(wheel, 3), (cycle, 2), (fan, 1),
                                       (complete_minus_matching, 1), (star, 0)])
def test_family_parameter_errors(build, arg):
    with pytest.raises(GraphInputError):
        build(arg)


def test_family_orders_past_graph6_are_input_errors():
    # each builder checks the order of its graph before it builds an edge,
    # so none of these allocates; C100000000000 once ran for minutes
    cap = families.GRAPH6_MAX_ORDER
    assert cap == GRAPH6_MAX_ORDER
    calls = [(path, (cap + 1,)), (cycle, (cap + 1,)), (complete, (cap + 1,)),
             (complete_bipartite, (1, cap)), (star, (cap,)), (wheel, (cap + 1,)),
             (fan, (cap + 1,)), (complete_minus_matching, (cap + 1,)),
             (prism, (from_edge_list((cap + 1) // 2, []),)),
             (join, (from_edge_list(cap, []), complete(1)))]
    for build, args in calls:
        with pytest.raises(GraphInputError, match=str(cap + 1)):
            build(*args)
    for token in (f"C{cap + 1}", f"K{cap + 1}", "C100000000000"):
        with pytest.raises(GraphInputError, match="graph6"):
            parse_graph_token(token)


def test_direct_product_refuses_an_order_past_graph6_before_building(monkeypatch):
    # the cap is read at call time; a product past it used to be built in
    # full, masks and all, before the graph6 writer refused it
    def no_mask(mask):
        raise AssertionError("a mask was built")

    monkeypatch.setattr(graph, "GRAPH6_MAX_ORDER", 11)
    monkeypatch.setattr(graph, "bits_of", no_mask)
    with pytest.raises(GraphInputError, match="12 vertices .*graph6.* 11"):
        direct_product(path(3), path(4))
    monkeypatch.undo()
    monkeypatch.setattr(graph, "GRAPH6_MAX_ORDER", 12)
    assert direct_product(path(3), path(4)).base.n == 12


def test_the_automorphism_check_rejects_a_non_bijection_and_a_broken_edge():
    p3 = path(3)
    assert not _is_automorphism(p3, [0, 0, 2])
    assert not _is_automorphism(p3, [1, 0, 2])
    assert _is_automorphism(p3, [2, 1, 0])


def test_structural_predicates():
    assert is_triangle_free(cycle(5)) and not is_bipartite(cycle(5))
    assert is_bipartite(complete_bipartite(2, 3)) and not is_regular(complete_bipartite(2, 3))
    assert not is_triangle_free(complete(3))
    assert is_regular(cycle(7))
    assert not is_connected(direct_product(path(6), path(6)).base)


def test_parse_graph_token_shorthand():
    assert parse_graph_token("K3").num_edges() == 3
    assert parse_graph_token("K2,3").n == 5
    assert parse_graph_token("W5").num_edges() == 8
    assert parse_graph_token("K5-M").num_edges() == 8
    assert parse_graph_token("prismC3").n == 6
    assert parse_graph_token("A_").n == 2  # graph6 fallback
