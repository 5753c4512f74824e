import random

import pytest

from trdprod import labeling
from trdprod.errors import ConsistencyError, HypothesisError, PreconditionError
from trdprod.families import complete, cycle, path, prism, star
from trdprod.graph import from_edge_list
from trdprod.graph6 import parse_graph6
from trdprod.labeling import (LabelFunction, VertexSet, eod_by_unit_neighbor_count,
                              is_efficient_open_dominating, is_open_packing,
                              is_packing, is_total_dominating, is_total_roman_dominating,
                              trdf_from_total_dominating_set)


def lf(g, labels):
    return LabelFunction(g, tuple(labels))


def vs(g, vertices):
    return VertexSet.from_vertices(g, vertices)


def test_total_roman_examples():
    assert is_total_roman_dominating(lf(path(4), (0, 2, 2, 0)))
    assert is_total_roman_dominating(lf(path(3), (0, 2, 1)))
    assert not is_total_roman_dominating(lf(cycle(4), (2, 0, 0, 0)))


def test_total_roman_requires_no_isolated():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(HypothesisError):
        is_total_roman_dominating(lf(g, (1, 1, 0)))


def test_packing_examples():
    assert is_packing(vs(path(4), [0, 3]))
    assert not is_packing(vs(path(4), [0, 2]))
    assert is_open_packing(vs(cycle(4), [0, 1]))
    assert not is_open_packing(vs(complete(3), [0, 1]))
    assert not is_open_packing(vs(complete(3), [1, 2]))


def test_total_dominating_and_eod_examples():
    assert is_efficient_open_dominating(vs(cycle(4), [0, 1]))
    assert is_total_dominating(vs(path(4), [1, 2]))
    assert is_open_packing(vs(path(4), [1, 2]))
    assert is_efficient_open_dominating(vs(path(4), [1, 2]))
    # no 6-cycle subset works
    assert not any(is_efficient_open_dominating(vs(cycle(6), [v for v in range(6) if m >> v & 1]))
                   for m in range(1, 64))


def test_eod_double_implementation_agrees():
    rng = random.Random(7)
    graphs = [cycle(4), cycle(5), cycle(6), path(5), star(3), complete(4), prism(cycle(3))]
    for g in graphs:
        for _ in range(80):
            members = rng.randrange(1 << g.n)
            s = VertexSet(g, members)
            assert is_efficient_open_dominating(s) == eod_by_unit_neighbor_count(s)


def test_trdf_from_total_dominating_set():
    f = trdf_from_total_dominating_set(
        VertexSet.from_vertices(cycle(4), [0, 1], "total_dominating"))
    assert f.weight == 4 and is_total_roman_dominating(f)
    g = complete(2)
    f = trdf_from_total_dominating_set(VertexSet.from_vertices(g, [0, 1], "total_dominating"))
    assert f.labels == (2, 2) and f.weight == 4
    f = trdf_from_total_dominating_set(VertexSet.from_vertices(path(4), [1, 2],
                                                               "total_dominating"))
    assert f.labels == (0, 2, 2, 0)


def test_trdf_from_non_dominating_set_rejected():
    with pytest.raises(PreconditionError):
        trdf_from_total_dominating_set(VertexSet.from_vertices(path(4), [0, 1]))


def test_trdf_from_total_dominating_set_verifies_its_output(monkeypatch):
    # the re-check raises, so it holds under python -O as well
    monkeypatch.setattr(labeling, "is_total_roman_dominating", lambda f: False)
    with pytest.raises(ConsistencyError):
        trdf_from_total_dominating_set(
            VertexSet.from_vertices(cycle(4), [0, 1], "total_dominating"))


def test_role_tag_is_verified_at_construction():
    with pytest.raises(PreconditionError):
        VertexSet.from_vertices(path(4), [0, 2], "packing")
    with pytest.raises(PreconditionError):
        VertexSet.from_vertices(complete(3), [0, 1], "open_packing")


def test_total_roman_implies_roman_on_random_labelings():
    rng = random.Random(11)
    for g in [path(4), cycle(5), star(4), complete(4)]:
        for _ in range(120):
            labels = tuple(rng.choice((0, 1, 2)) for _ in range(g.n))
            f = lf(g, labels)
            if is_total_roman_dominating(f):
                # Roman dominating: every 0 has a 2-neighbour
                two = f.mask(2)
                assert all(g.adj[v] & two for v in f.v0)


def test_raising_labels_preserves_validity():
    rng = random.Random(13)
    for g in [path(4), cycle(4), cycle(5), star(3)]:
        valid = [tuple(rng.choice((0, 1, 2)) for _ in range(g.n)) for _ in range(300)]
        valid = [l for l in valid if is_total_roman_dominating(lf(g, l))]
        for labels in valid[:20]:
            for v in range(g.n):
                if labels[v] < 2:
                    raised = list(labels)
                    raised[v] += 1
                    assert is_total_roman_dominating(lf(g, raised))


def test_weight_identity():
    rng = random.Random(17)
    g = cycle(6)
    for _ in range(100):
        labels = tuple(rng.choice((0, 1, 2)) for _ in range(6))
        f = lf(g, labels)
        assert f.weight == len(f.v1) + 2 * len(f.v2)
        assert len(f.v0) + len(f.v1) + len(f.v2) == g.n


def test_json_round_trips():
    f = lf(path(3), (0, 2, 1))
    doc = f.to_json_dict()
    assert doc["labels"] == [0, 2, 1]
    assert parse_graph6(doc["graph"]).adj == path(3).adj
    s = VertexSet.from_vertices(cycle(4), [0, 1], "efficient_open_dominating")
    doc = s.to_json_dict()
    assert doc["members"] == [0, 1] and doc["role"] == "efficient_open_dominating"


def _is_trdf_by_definition(g, labels):
    """Total Roman domination read off its definition, vertex by vertex."""
    for v in range(g.n):
        nbr_labels = [labels[u] for u in g.neighbors(v)]
        if labels[v] == 0 and 2 not in nbr_labels:
            return False
        if labels[v] > 0 and not any(nbr_labels):
            return False
    return True


def test_the_one_pass_predicate_matches_the_definition_on_random_labelings():
    rng = random.Random(19)
    graphs = [path(4), cycle(5), star(4), complete(4), prism(cycle(4))]
    while len(graphs) < 40:
        n = rng.randint(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = from_edge_list(n, edges)
        if all(g.adj):
            graphs.append(g)
    verdicts = set()
    for g in graphs:
        for _ in range(60):
            weights = rng.choice(((1, 1, 1), (3, 1, 2), (1, 1, 4)))
            labels = tuple(rng.choices((0, 1, 2), weights, k=g.n))
            verdict = is_total_roman_dominating(lf(g, labels))
            assert verdict == _is_trdf_by_definition(g, labels), (g.adj, labels)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("labels", [(2.0, True, 0, 2), (0, 2, True, 2), (0, 2, 1.0, 1),
                                    (0, 2, "2", 2), (0, 2, 3, 0), (0, -1, 2, 2)],
                         ids=["float-and-bool", "bool", "float", "str", "three", "negative"])
def test_labels_must_be_the_ints_0_1_or_2(labels):
    # a bool or a float equals an int label, so a test of values alone let
    # (2.0, True, 0, 2) through, weighing 5.0 and written as [2.0, true, 0, 2]
    with pytest.raises(PreconditionError):
        LabelFunction(cycle(4), labels)
