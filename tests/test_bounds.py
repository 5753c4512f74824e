import pytest

from trdprod import bounds
from trdprod.bounds import (factor_profile, genlower_check, pair_bounds,
                            verify_theorems)
from trdprod.catalog import enumerate_catalog
from trdprod.classify import certify_regular_eod_product
from trdprod.errors import PreconditionError, SolverTimeout
from trdprod.families import complete, cycle, path, star
from trdprod.graph import direct_product
from trdprod.labeling import LabelFunction
from trdprod.solve import gamma_tr_exact, gamma_tr_max_v2


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
    calls = {"gamma_tr_exact": [], "gamma_tr_max_v2": []}
    for name, log in calls.items():
        def counting(g, *args, real=getattr(bounds, name), log=log, **kwargs):
            log.append(g.n)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(bounds, name, counting)
    rep = verify_theorems([complete(2), path(3)], budget=60)
    assert rep.ok and not rep.skipped
    assert calls["gamma_tr_exact"] == []
    # the two factors, then the products K2xK2, K2xP3 and P3xP3
    assert sorted(calls["gamma_tr_max_v2"]) == [2, 3, 4, 6, 9]


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
    rep = _products_time_out(monkeypatch, 1)
    assert rep.ok and len(rep.skipped) == 3
    for rec in rep.pairs:
        assert rec["skipped"] and rec["exact"] is None
        lower, upper = rec["timeout_bounds"]
        assert upper == lower + 1
        assert "bounds" not in rec and "genlower" not in rec
