import dataclasses

import pytest

from trdprod import _kernels, bounds, classify, cli, solve
from trdprod.bounds import (factor_profile, genlower_check, pair_bounds,
                            verify_theorems)
from trdprod.catalog import enumerate_catalog
from trdprod.classify import certify_regular_eod_product
from trdprod.errors import ConsistencyError, PreconditionError, SizeLimitError, SolverTimeout
from trdprod.families import complete, cycle, path, prism, star
from trdprod.graph import direct_product, from_edge_list
from trdprod.labeling import LabelFunction
from trdprod.solve import ParetoPoint, gamma_tr_exact, gamma_tr_max_v2

TWO_K2 = from_edge_list(4, [(0, 1), (2, 3)], "2K2")


@pytest.fixture(scope="module")
def catalog4_profiles():
    return [factor_profile(g) for g in enumerate_catalog(4).graphs]


def test_factor_profile_p4():
    p = factor_profile(path(4))
    assert p.gamma_tr == 4 and p.gamma_t == 2
    assert p.rho == 2 and p.rho_o == 2
    assert p.bipartite and p.triangle_free and not p.regular
    assert p.universal_count == 0 and p.triangle_witness is None


def test_factor_profile_k3():
    p = factor_profile(complete(3))
    assert p.gamma_tr == 3 and p.gamma_t == 2
    assert p.triangle_witness is not None
    assert p.max_v2 == 1


def test_factor_profile_c4():
    p = factor_profile(cycle(4))
    assert p.gamma_tr == 4 and p.gamma_t == 2
    assert p.rho == 1 and p.rho_o == 2
    assert p.eod is not None and p.regular and p.total_roman
    assert p.max_v2 == 2


def test_each_derived_profile_value_is_what_the_solvers_give(catalog4_profiles):
    for p in catalog4_profiles:
        g, best = p.graph, gamma_tr_max_v2(p.graph)
        assert (p.order, p.max_degree) == (g.n, g.max_degree())
        assert p.gamma_t == solve.gamma_t_exact(g).value
        assert (p.gamma_tr, p.max_v2) == (best.value, best.max_v2)
        f = p.gamma_tr_function
        assert (f.weight, len(f.v2)) == (best.value, best.max_v2) and f.graph is g
        assert p.total_roman == (best.value == 2 * p.gamma_t)


def test_factor_profile_refuses_a_frontier_that_does_not_end_at_twice_gamma_t(monkeypatch):
    # the frontier and the subset enumeration check each other
    real = bounds.gamma_t_exact

    def one_too_many(g):
        res = real(g)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(bounds, "gamma_t_exact", one_too_many)
    with pytest.raises(ConsistencyError, match="not twice gamma_t"):
        factor_profile(path(4))


def test_a_factor_past_the_subset_limit_fails_before_any_search(monkeypatch):
    # gamma_t comes first, so C5 x C5 (25 vertices) visits no B&B node
    nodes = []
    for name in ("bnb_min_weight", "bnb_max_twos"):
        def counting(*args, kernel=getattr(_kernels, name)):
            before = args[11][4]
            status = kernel(*args)
            nodes.append(args[11][4] - before)
            return status

        monkeypatch.setattr(_kernels, name, counting)
    with pytest.raises(SizeLimitError):
        factor_profile(direct_product(cycle(5), cycle(5)).base)
    assert sum(nodes) == 0


def test_pair_bounds_p4_p4_pinch():
    p = factor_profile(path(4))
    rep = pair_bounds(p, p)
    assert rep.entry("LB_pack").value == 8
    assert rep.entry("UB_2gt").value == 8
    assert rep.best_lower() == rep.best_upper() == 8


def test_pair_bounds_star_pair():
    p = factor_profile(star(2))
    rep = pair_bounds(p, p)
    e = rep.entry("UB_minus2")
    assert e.applicable and e.value == 7
    exact = gamma_tr_exact(direct_product(star(2), star(2)).base, budget=60).value
    assert exact == 7


def test_pair_bounds_regular_eod_certificate():
    rep = pair_bounds(factor_profile(cycle(4)), factor_profile(cycle(8)))
    e = rep.entry("EXACT_regEOD")
    assert e.applicable and e.value == 16
    assert certify_regular_eod_product(cycle(4), cycle(8)).value == 16


def test_pair_bounds_gates():
    pk2 = factor_profile(complete(2))
    pc4 = factor_profile(cycle(4))
    rep = pair_bounds(pk2, pc4)
    assert not rep.entry("LB_opack").applicable  # needs both orders >= 3
    assert not rep.entry("UB_half").applicable   # K2 is not a total Roman graph
    assert rep.entry("UB_2rho_o").applicable     # both have EOD sets
    assert not rep.entry("EXACT_regEOD").applicable  # degree-1 factor excluded


def test_pair_bounds_do_not_depend_on_the_factor_order(catalog4_profiles):
    assert len(catalog4_profiles) == 10
    for pg in catalog4_profiles:
        for ph in catalog4_profiles:
            fwd = [b.to_json_dict() for b in pair_bounds(pg, ph).bounds]
            back = [b.to_json_dict() for b in pair_bounds(ph, pg).bounds]
            assert fwd == back, (pg.graph.name, ph.graph.name)


@pytest.mark.parametrize("name, g, h, value, exact", [
    # P4 has packing number 2; P3 as the triangle-free factor opens the gate
    ("LB_tfb", path(4), path(3), 12, 8),
    # every optimal labeling of 2K2 is all-1
    ("UB_minus2", path(3), TWO_K2, 10, 12),
    # K2 x K2 is 2K2, of optimum 4
    ("EXACT_regEOD", complete(2), complete(2), 8, 4),
], ids=["LB_tfb", "UB_minus2", "EXACT_regEOD"])
def test_each_narrowed_gate_is_needed(name, g, h, value, exact):
    # each of these gates is narrower than the paper's statement; the row's
    # formula, read where its gate is closed, contradicts the exact value
    (kind, gate, formula), = [row[1:4] for row in bounds._BOUNDS if row[0] == name]
    pg, ph = factor_profile(g), factor_profile(h)
    assert not gate(pg, ph)
    assert formula(pg, ph) == value
    assert gamma_tr_exact(direct_product(g, h).base).value == exact
    assert {"lower": value > exact, "upper": value < exact, "exact": value != exact}[kind]


def test_the_regular_eod_gate_agrees_with_the_certificate(catalog4_profiles):
    # classify states the same hypotheses on graphs, bounds on profiles
    pairs = [(pg, ph) for pg in catalog4_profiles for ph in catalog4_profiles]
    pairs += [(factor_profile(cycle(4)), factor_profile(h))
              for h in (cycle(8), prism(cycle(3)))]
    opened = 0
    for pg, ph in pairs:
        e = pair_bounds(pg, ph).entry("EXACT_regEOD")
        cert = certify_regular_eod_product(pg.graph, ph.graph)
        assert e.applicable == (cert is not None), (pg.graph.name, ph.graph.name)
        if cert is not None:
            assert e.value == cert.value
            opened += 1
    assert opened == 3  # C4 x C4, C4 x C8 and C4 x prism(C3)


def test_upper_bound_chain_on_catalog_pairs():
    profiles = [factor_profile(g) for g in enumerate_catalog(3).graphs]
    for pg in profiles:
        for ph in profiles:
            rep = pair_bounds(pg, ph)
            remark = rep.entry("UB_remark").value
            maxa2 = rep.entry("UB_maxA2").value
            assert remark <= maxa2
            minus2 = rep.entry("UB_minus2")
            if minus2.applicable:
                assert maxa2 <= minus2.value


def test_remark_bound_loses_nothing_to_the_end_at_twice_gamma_t(catalog4_profiles):
    # past 2*gamma_t the best 2-count at weight w is w // 2; frontiers
    # extended that way to 2n give the same minimum, and it stays at or above
    # the exact value
    def extended(p):
        return p.frontier + tuple(ParetoPoint(w, w // 2, None)
                                  for w in range(p.frontier[-1].weight + 1, 2 * p.order + 1))

    for i, pg in enumerate(catalog4_profiles):
        for ph in catalog4_profiles[i:]:
            remark = pair_bounds(pg, ph).entry("UB_remark").value
            assert remark == bounds._remark_minimum(extended(pg), extended(ph))
            assert remark >= gamma_tr_exact(direct_product(pg.graph, ph.graph).base).value


def test_genlower_on_c4_optimum():
    g = cycle(4)
    res = gamma_tr_max_v2(g)
    chk = genlower_check(g, res.witness, res.value)
    assert chk["ok"] and chk["weight_bound_ok"] and chk["v2_bound_ok"]
    assert chk["equality_condition"] and chk["equality_ok"]
    assert chk["weight_bound"] == 4


def test_genlower_on_k2():
    g = complete(2)
    chk = genlower_check(g, LabelFunction(g, (1, 1)), 2)
    assert chk["ok"]
    assert chk["weight_bound"] == 2 + 0  # degree term vanishes with no 2-labels


def test_genlower_on_certificate_product():
    cert = certify_regular_eod_product(cycle(4), cycle(8))
    product = cert.witness.graph
    chk = genlower_check(product, cert.witness, cert.value)
    assert product.n == 32 and product.max_degree() == 4
    assert chk["equality_condition"]  # 32 == 4 * 8 + 0
    assert chk["equality_ok"] and chk["ok"]
    assert cert.value == 32 - (4 - 2) * 8


def test_genlower_rejects_bad_inputs():
    g = cycle(4)
    with pytest.raises(PreconditionError):
        genlower_check(g, LabelFunction(g, (2, 0, 0, 0)))
    with pytest.raises(PreconditionError):
        genlower_check(g, LabelFunction(g, (2, 2, 0, 0)), claimed_value=6)


def test_verify_theorems_small_catalog():
    rep = verify_theorems(list(enumerate_catalog(3).graphs), budget=60)
    assert rep.ok
    assert len(rep.pairs) == 6
    assert not rep.skipped
    assert rep.eod_slack_min is not None and rep.eod_slack_min >= 0


def test_verify_report_serialization():
    rep = verify_theorems([complete(2), path(3)], budget=60)
    doc = rep.to_json_dict()
    assert doc["num_pairs"] == 3
    rows = rep.csv_rows()
    assert rows[0][0] == "g" and len(rows) == 4


def test_verify_parallel_matches_serial():
    graphs = list(enumerate_catalog(3).graphs)
    serial = verify_theorems(graphs, budget=60, jobs=1)
    parallel = verify_theorems(graphs, budget=60, jobs=2)
    assert [p["exact"] for p in serial.pairs] == [p["exact"] for p in parallel.pairs]
    assert serial.violations == parallel.violations


def test_verify_solves_each_graph_once(monkeypatch):
    # every optimality proof of the audit, one per connected component
    proofs = []
    real = solve._gamma_tr_value

    def counting(sg, *args):
        proofs.append((sg.g.n, sg.free))
        return real(sg, *args)

    monkeypatch.setattr(solve, "_gamma_tr_value", counting)
    rep = verify_theorems([complete(2), path(3)], budget=60)
    assert rep.ok and not rep.skipped
    assert len(set(proofs)) == len(proofs)
    # the two factors, then the products K2xK2, K2xP3 and P3xP3
    assert sorted({n for n, _ in proofs}) == [2, 3, 4, 6, 9]


def _products_time_out(monkeypatch, gap):
    """Patch the harness so every product solve times out with bounds
    [value, value + gap] around its true value; factors still solve."""
    real = bounds.gamma_tr_max_v2
    factors = [complete(2), path(3)]

    def timing_out(g, *args, **kwargs):
        res = real(g, *args, **kwargs)
        if any(g is f for f in factors):
            return res
        raise SolverTimeout("search budget exhausted", res.value, res.value + gap)

    monkeypatch.setattr(bounds, "gamma_tr_max_v2", timing_out)
    return verify_theorems(factors, budget=60)


def test_a_timeout_with_a_proven_value_keeps_the_value_checks(monkeypatch):
    expected = verify_theorems([complete(2), path(3)], budget=60)
    rep = _products_time_out(monkeypatch, 0)
    assert rep.ok and len(rep.skipped) == 3
    for rec, full in zip(rep.pairs, expected.pairs):
        assert rec["skipped"] and rec["timeout_bounds"] == [full["exact"]] * 2
        for key in ("exact", "oracle", "bounds", "best_lower", "best_upper"):
            assert rec[key] == full[key]
        assert "genlower" in full and "genlower" not in rec and "triangle" not in rec


def test_a_timeout_before_the_proof_records_no_value(monkeypatch):
    # the claims are checked against the interval; only the checks that
    # need the value or a witness are left out
    expected = verify_theorems([complete(2), path(3)], budget=60)
    rep = _products_time_out(monkeypatch, 1)
    assert rep.ok and len(rep.skipped) == 3
    for rec, full in zip(rep.pairs, expected.pairs):
        assert rec["skipped"] and rec["exact"] is None
        assert rec["timeout_bounds"] == [full["exact"], full["exact"] + 1]
        for key in ("bounds", "best_lower", "best_upper"):
            assert rec[key] == full[key]
        assert not {"oracle", "eod_slack", "genlower", "triangle"} & rec.keys()
    # the CSV writes the interval in the exact cell, and every other cell
    # as for the solved run
    rows, solved = rep.csv_rows(), expected.csv_rows()
    assert rows[0] == solved[0]
    for row, full in zip(rows[1:], solved[1:], strict=True):
        assert row == full[:2] + [f"{full[2]}..{full[2] + 1}"] + full[3:]


def _set_row(name, value):
    def change(monkeypatch, pg, ph):
        real = bounds.pair_bounds

        def with_row(a, b):
            rep = real(a, b)
            rep.entry(name).value = value
            return rep

        monkeypatch.setattr(bounds, "pair_bounds", with_row)
        return pg, ph
    return change


def _verdict_one_too_high(monkeypatch, pg, ph):
    real = classify.classify_small_product

    def raised(g, h):
        verdict = real(g, h)
        return dataclasses.replace(verdict, value=verdict.value + 1)

    monkeypatch.setattr(classify, "classify_small_product", raised)
    return pg, ph


def _failing_genlower(monkeypatch, pg, ph):
    real = bounds.genlower_check
    monkeypatch.setattr(bounds, "genlower_check", lambda *args: {**real(*args), "ok": False})
    return pg, ph


def _timeout_at(low, high):
    def change(monkeypatch, pg, ph):
        def timing_out(g, budget):
            raise SolverTimeout("search budget exhausted", low, high)

        monkeypatch.setattr(bounds, "gamma_tr_max_v2", timing_out)
        return pg, ph
    return change


@pytest.mark.parametrize("g, h, change, expected", [
    (complete(2), complete(2), _set_row("LB_pack", 5),
     ["lower claim LB_pack=5 fails against [4, 4]"]),
    (complete(2), complete(2), _set_row("UB_2gt", 3),
     ["upper claim UB_2gt=3 fails against [4, 4]",
      "construction from_total_dom_sets weight 8 != UB_2gt 3"]),
    (cycle(4), cycle(4), _set_row("EXACT_regEOD", 9),
     ["exact claim EXACT_regEOD=9 fails against [8, 8]"]),
    (complete(2), complete(2), _verdict_one_too_high,
     ["exact claim verdict ii=5 fails against [4, 4]",
      "construction small_ii weight 4 != verdict 5"]),
    (complete(2), complete(2),
     lambda monkeypatch, pg, ph: (dataclasses.replace(pg, rho_o=3), ph),
     ["EOD factor with rho_o != gamma_t"]),
    (complete(2), complete(2), _set_row("UB_remark", 5), ["UB_remark 5 > UB_maxA2 4"]),
    (path(3), path(3), _set_row("UB_maxA2", 8), ["UB_maxA2 8 > UB_minus2 7"]),
    (complete(2), complete(2), _failing_genlower,
     ["order/degree lower bound inequalities failed"]),
    (complete(3), complete(3),
     lambda monkeypatch, pg, ph: (dataclasses.replace(pg, triangle_witness=None), ph),
     ["triangle-centered equivalence broken: tc=False, six=True, support3=True"]),
    (complete(2), complete(2), _timeout_at(7, 8),
     ["upper claim UB_maxA2=4 fails against [7, 8]",
      "upper claim UB_remark=4 fails against [7, 8]",
      "upper claim construction from_factors=4 fails against [7, 8]",
      "upper claim construction small_ii=4 fails against [7, 8]",
      "exact claim verdict ii=4 fails against [7, 8]"]),
], ids=["lower-row", "upper-row", "exact-row", "verdict", "eod-factor", "remark-chain",
        "minus2-chain", "genlower", "triangle", "timeout-interval"])
def test_every_audit_check_fires(monkeypatch, g, h, change, expected):
    # each case changes one input of the audit of one pair
    pg, ph = change(monkeypatch, factor_profile(g), factor_profile(h))
    rec = bounds._verify_pair((pg, ph, 60))
    prefix = f"({g.name},{h.name}): "
    for message in expected:
        assert any(v.startswith(prefix + message) for v in rec["violations"]), rec["violations"]


def test_cli_verify_lists_the_pairs_a_timeout_skipped(monkeypatch, capsys):
    rep = _products_time_out(monkeypatch, 1)
    monkeypatch.setattr(bounds, "verify_theorems", lambda graphs, budget, jobs: rep)
    assert cli.main(["verify", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "violations: 0" in lines
    assert f"skipped (budget): {', '.join(rep.skipped)}" in lines
