import dataclasses
import hashlib
import json

import pytest

from trdprod import bounds, cli, families, solve
from trdprod.catalog import enumerate_catalog
from trdprod.errors import SizeLimitError, SolverTimeout
from trdprod.families import cycle
from trdprod.graph import direct_product, is_connected
from trdprod.graph6 import emit_graph6, parse_graph6
from trdprod.labeling import LabelFunction, is_total_roman_dominating


def test_enumerate_small_orders():
    cat = enumerate_catalog(3)
    assert len(cat.graphs) == 3  # single edge, path, triangle
    assert sorted(g.n for g in cat.graphs) == [2, 3, 3]


def test_enumerate_four_includes_disconnected():
    cat = enumerate_catalog(4)
    assert len(cat.graphs) == 10
    disconnected = [g for g in cat.graphs if not is_connected(g)]
    assert len(disconnected) == 1 and disconnected[0].num_edges() == 2  # two edges


def test_enumerate_five_connected_count():
    cat = enumerate_catalog(5)
    assert sum(1 for g in cat.graphs if g.n == 5 and is_connected(g)) == 21
    assert all(all(g.degree(v) >= 1 for v in range(g.n)) for g in cat.graphs)


def test_enumerate_rejects_large_order():
    with pytest.raises(SizeLimitError):
        enumerate_catalog(6)


def test_catalog_names_round_trip():
    for g in enumerate_catalog(4).graphs:
        assert parse_graph6(g.name).adj == g.adj


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_budget_help_reads_the_default_budget(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    for budget, shown in ((solve.DEFAULT_BUDGET_S, "60"), (7.5, "7.5")):
        monkeypatch.setattr(solve, "DEFAULT_BUDGET_S", budget)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gammatr", "--help"])
        assert exc.value.code == 0
        assert f"solver budget in seconds (default: {shown})" in capsys.readouterr().out


def test_cli_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "K3", "K3")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 6


def test_cli_gammatr_from_file(capsys, tmp_path):
    prod = direct_product(cycle(4), cycle(4)).base
    path = tmp_path / "C4xC4.g6"
    path.write_text(emit_graph6(prod) + "\n")
    code, out, _ = run_cli(capsys, "gammatr", "--max-v2", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 8
    assert doc["max_v2"] == 4


def test_cli_product_and_family(capsys):
    code, out, _ = run_cli(capsys, "product", "C4", "K2")
    assert code == 0
    assert parse_graph6(out.strip()).n == 8

    code, out, _ = run_cli(capsys, "family", "wheel", "5")
    assert code == 0
    assert parse_graph6(out.strip()).num_edges() == 8

    code, out, _ = run_cli(capsys, "family", "prism", "C3", "--emit", "json")
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_cli_bounds_exact(capsys):
    code, out, _ = run_cli(capsys, "bounds", "P4", "P4", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 8
    by_name = {b["name"]: b for b in doc["bounds"]}
    assert by_name["LB_pack"]["value"] == 8
    assert by_name["UB_2gt"]["value"] == 8


def test_cli_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "iii_triangle", "K3", "K3")
    assert code == 0
    assert json.loads(out)["weight"] == 6

    code, out, _ = run_cli(capsys, "construct", "eod", "C4", "C8")
    assert code == 0
    assert json.loads(out)["size"] == 8


def test_cli_construct_from_factor_labelings_meets_the_max_2s_bound(capsys):
    # the product labeling of the factors' max-2s witnesses weighs UB_maxA2
    code, out, _ = run_cli(capsys, "construct", "factors", "C4", "C8")
    assert code == 0
    doc = json.loads(out)
    g = parse_graph6(doc["graph"])
    assert g.adj == direct_product(cycle(4), cycle(8)).base.adj
    f = LabelFunction(g, tuple(doc["labels"]))
    assert is_total_roman_dominating(f) and f.weight == doc["weight"] == 16
    code, out, _ = run_cli(capsys, "bounds", "C4", "C8")
    assert code == 0
    by_name = {b["name"]: b for b in json.loads(out)["bounds"]}
    assert by_name["UB_maxA2"]["value"] == 16


def test_cli_verify_reports_a_disagreement_with_brute_force(capsys, monkeypatch):
    real = bounds.gamma_tr_bruteforce

    def one_too_many(g):
        res = real(g)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(bounds, "gamma_tr_bruteforce", one_too_many)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert "violations: 1" in out
    # the catalog names K2 by its graph6 text, A_; K2 x K2 is 2K2, of gamma_tR 4
    assert "  (A_,A_): branch-and-bound 4 disagrees with brute force 5" in out.splitlines()


def test_cli_verify_reports_a_2_count_that_disagrees_with_brute_force(capsys, monkeypatch):
    # a max-2s fault keeps the value, so only the oracle's 2-count shows it
    real = bounds.gamma_tr_max_v2

    def one_two_too_many(g, budget=None):
        res = real(g, budget)
        return dataclasses.replace(res, max_v2=res.max_v2 + 1)

    monkeypatch.setattr(bounds, "gamma_tr_max_v2", one_two_too_many)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert "violations: 1" in out
    # every optimal labeling of 2K2 is all-1, so it has no 2
    assert ("  (A_,A_): branch-and-bound max 2-count 1 disagrees with brute force 0"
            in out.splitlines())


def test_cli_verify(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3",
                           "--out", str(out_json), "--csv", str(out_csv))
    assert code == 0
    assert "violations: 0" in out
    doc = json.loads(out_json.read_text())
    assert doc["num_pairs"] == 6 and doc["violations"] == []
    assert out_csv.read_text().startswith("g,")
    # the report is byte-stable: a refactor that keeps behaviour keeps this digest
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == (
        "448f3fbb44c04d737e5b9c20d2c15431dbb6c49fdab3ef7f5e08291d24b8a898")


def test_cli_domain_error_exit_code(capsys):
    # three isolated vertices: solver hypothesis fails
    code, _, err = run_cli(capsys, "gammatr", "B?")
    assert code == 1
    assert "error" in json.loads(err)


def test_cli_family_non_integer_size_is_a_json_error(capsys):
    code, out, err = run_cli(capsys, "family", "cycle", "abc")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and "abc" in doc["error"]


@pytest.mark.parametrize("params", [("nosuch",), ("cycle", "3", "4")])
def test_cli_family_checks_are_those_of_generate(capsys, params):
    # an unknown kind and a wrong parameter count are families.generate's errors
    code, out, err = run_cli(capsys, "family", *params)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and params[0] in doc["error"]


def test_cli_family_wrong_operand_count_is_the_count_error_of_generate(capsys):
    # prism takes one operand graph; a second one is a wrong count, not a bad size
    code, out, err = run_cli(capsys, "family", "prism", "C3", "C4")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError"
    assert "takes 0 size parameter(s) and 1 operand graph(s)" in doc["error"]


def test_cli_malformed_graph_json_is_a_json_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, out, err = run_cli(capsys, "gammatr", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and "bad.json" in doc["error"]


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_graph_file_is_a_json_error(capsys, tmp_path, kind):
    # a directory once ended in an IsADirectoryError traceback, and bytes
    # that are not UTF-8 in a UnicodeDecodeError one
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "graph.g6"
        path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "gammatr", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and str(path) in doc["error"]


def test_cli_invariants_lists_the_frontier_up_to_2n(capsys):
    # prism(C7) has 14 vertices, past the 3^n oracle; gamma_tR = 2 gamma_t = 10,
    # so the frontier solve ends at its first point and the rest is w // 2
    code, out, _ = run_cli(capsys, "invariants", "prismC7")
    assert code == 0
    frontier = json.loads(out)["frontier"]
    assert len(frontier) == 19 and frontier[0] == [10, 5] and frontier[-1] == [28, 14]


def test_cli_zero_vertex_graph_has_its_invariants_and_no_product(capsys, tmp_path):
    # these once reported a ConsistencyError, which is kept for internal faults
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "edges": []}))
    code, out, _ = run_cli(capsys, "invariants", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma_t"] == 0 and doc["gamma_tr"] == 0 and doc["order"] == 0
    for command in ("bounds", "classify"):
        code, out, err = run_cli(capsys, command, str(path), str(path))
        assert code == 0 and err == "", command
    for case in ("tdsets", "eod"):
        code, out, err = run_cli(capsys, "construct", case, str(path), str(path))
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["type"] == "GraphInputError" and "nonempty" in doc["error"], case


@pytest.mark.parametrize("params", [("family", "cycle", "{order}"), ("gammatr", "C{order}"),
                                    ("gammatr", "C100000000000")])
def test_cli_family_order_past_graph6_is_a_json_error(capsys, params):
    # the shorthand once ran for minutes without output
    order = families.GRAPH6_MAX_ORDER + 1
    code, out, err = run_cli(capsys, *(p.format(order=order) for p in params))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and "graph6" in doc["error"]


@pytest.mark.parametrize("data,needle", [
    # far past the largest graph6 order, which once ended in a MemoryError
    ({"n": 10 ** 15, "edges": []}, "1000000000000000"),
    # a fraction once read as a 2-vertex graph
    ({"n": 2.7, "edges": [[0, 1]]}, "2.7"),
    ({"n": 258048, "edges": []}, "258048"),
    ({"n": True, "edges": []}, "True"),
    ({"n": 3, "edges": [[0, 1.0], [1, 2]]}, "1.0"),
    ({"n": 3, "edges": [[0, "1"], [1, 2]]}, "'1'"),
], ids=["huge", "fraction", "beyond-graph6", "bool", "float-end", "string-end"])
def test_cli_graph_json_takes_only_integers_up_to_the_graph6_order(capsys, tmp_path, data,
                                                                   needle):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "gammatr", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "GraphInputError" and needle in doc["error"]


def test_cli_eod_construction_without_eod_factors_is_a_precondition_error(capsys):
    # C5 has no efficient open dominating set
    code, out, err = run_cli(capsys, "construct", "eod", "C5", "C4")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "PreconditionError" and "efficient open" in doc["error"]


@pytest.mark.parametrize("text,kind", [("", "GraphInputError"),
                                       ("  \n\n", "GraphInputError"),
                                       (">>graph6<<\n", "Graph6ParseError")])
def test_cli_empty_graph_file_is_a_json_error(capsys, tmp_path, text, kind):
    path = tmp_path / "empty.g6"
    path.write_text(text)
    # a graph6 header with no data after it is an empty graph6 string
    code, out, err = run_cli(capsys, "gammatr", str(path))
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == kind and "empty" in doc["error"]


def test_cli_timeout_reports_its_certified_bounds(capsys, monkeypatch):
    def timeout(g, budget=None):
        raise SolverTimeout("x", lower_bound=18, upper_bound=21, nodes=5)

    monkeypatch.setattr(solve, "gamma_tr_exact", timeout)
    code, _, err = run_cli(capsys, "gammatr", "K3")
    assert code == 1
    assert json.loads(err) == {"error": "x", "type": "SolverTimeout",
                               "lower_bound": 18, "upper_bound": 21, "nodes": 5}


def test_cli_malformed_budget_is_a_json_error(capsys):
    code, _, err = run_cli(capsys, "gammatr", "K3", "--budget", "nan")
    assert code == 1
    doc = json.loads(err)
    assert doc["type"] == "PreconditionError" and "budget" in doc["error"].lower()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_verify_with_fewer_than_one_job_is_a_json_error(capsys, monkeypatch, jobs):
    def profile(g, budget=None):
        raise AssertionError("a factor profile was built")

    monkeypatch.setattr(bounds, "factor_profile", profile)
    code, out, err = run_cli(capsys, "verify", "--max-n", "2", "--jobs", jobs)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["type"] == "PreconditionError" and "jobs" in doc["error"]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["no-such-command"])
    assert err.value.code == 2


def test_cli_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bounds", "K3", "C4", "--exact")
    _, second, _ = run_cli(capsys, "bounds", "K3", "C4", "--exact")
    assert first == second
