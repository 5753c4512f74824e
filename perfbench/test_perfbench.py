"""The benchmark's own checks: each accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from trdprod import solve  # noqa: E402

SPEC = ("C4xP3", workloads.cycle(4), workloads.path(3))


@pytest.fixture(scope="module")
def solved():
    _, (gn, g_edges), (hn, h_edges) = SPEC
    ilp = reference.TrdILP(reference.adjacency(
        gn * hn, reference.product_edges(gn, g_edges, hn, h_edges)))
    value = ilp.optimum()
    g = workloads.build_product(SPEC)
    ops = {}
    for variant, fn in (("exact", solve.gamma_tr_exact), ("max_v2", solve.gamma_tr_max_v2)):
        res = fn(g, budget=60)
        ops[variant] = {"op": variant, "t": 0.0, "product": SPEC[0], "variant": variant,
                        "value": res.value, "max_v2": res.max_v2,
                        "labels": tuple(res.witness.labels)}
    return ilp, value, ilp.max_twos(value), ops


@pytest.mark.parametrize("a,b,value,twos", [(5, 5, 15, 7), (3, 7, 13, 6), (5, 4, 12, 6)])
def test_ilp_reference_matches_known_cycle_products(a, b, value, twos):
    ilp = reference.TrdILP(reference.adjacency(
        a * b, reference.product_edges(*workloads.cycle(a), *workloads.cycle(b))))
    assert ilp.optimum() == value
    assert ilp.max_twos(value) == twos


def test_atlas_counts_the_catalog_classes():
    assert len(reference.atlas_classes(2, 4)) == 10
    assert reference.pairs_count(10) == 55
    assert len(reference.atlas_classes(2, 3)) == 3


def test_product_builders_agree_and_a_wrong_edge_is_seen():
    _, (gn, g_edges), (hn, h_edges) = SPEC
    g = workloads.build_product(SPEC)
    assert workloads._product_matches(g, SPEC, reference)
    bent = (SPEC[0], (gn, g_edges[:-1]), (hn, h_edges))
    assert not workloads._product_matches(g, bent, reference)


@pytest.mark.parametrize("variant", ["exact", "max_v2"])
def test_right_solve_passes(solved, variant):
    ilp, value, twos, ops = solved
    assert workloads.check_solve_op(ops[variant], ilp, value, twos, True) == []


@pytest.mark.parametrize("variant", ["exact", "max_v2"])
def test_corrupted_witness_fails(solved, variant):
    ilp, value, twos, ops = solved
    op = dict(ops[variant])
    labels = list(op["labels"])
    labels[labels.index(2)] = 0
    op["labels"] = tuple(labels)
    assert workloads.check_solve_op(op, ilp, value, twos, True)


def test_wrong_optimum_fails(solved):
    ilp, value, twos, ops = solved
    # A valid labeling one heavier than the optimum, reported as optimal.
    op = dict(ops["exact"])
    labels = list(op["labels"])
    labels[labels.index(0)] = 1
    op["labels"] = tuple(labels)
    op["value"] = value + 1
    assert reference.is_trdf(ilp.adj, op["labels"])
    assert workloads.check_solve_op(op, ilp, value, twos, True)


def test_non_lex_smallest_witness_fails(solved):
    ilp, value, twos, ops = solved
    n = ilp.n
    # The optimum that puts the largest labels first, which is not the lex-first one.
    front = -reference.np.tile(reference.np.arange(n, 0, -1, dtype=float), 2)
    _, other = ilp._solve(front, weight=(value, value))
    assert other > ops["exact"]["labels"]
    op = dict(ops["exact"], labels=other)
    assert any("lexicographically" in w
               for w in workloads.check_solve_op(op, ilp, value, twos, True))


def test_wrong_two_count_fails(solved):
    ilp, value, twos, ops = solved
    op = dict(ops["max_v2"], max_v2=twos - 1)
    assert workloads.check_solve_op(op, ilp, value, twos, True)


def test_wrong_product_fails(solved):
    ilp, value, twos, ops = solved
    assert workloads.check_solve_op(ops["exact"], ilp, value, twos, False)


def _timeout(t, lower, upper):
    return {"op": "budget", "t": t, "budget": 1.0, "n": 25, "timeout": True,
            "lower": lower, "upper": upper, "nodes": 1}


def test_prompt_bracketing_timeout_passes():
    assert workloads.check_deadline_op(_timeout(1.1, 7, 15), [], 15) == []


def test_raised_error_fails():
    err = {"op": "x", "t": 0.5, "budget": 1.0, "timeout": False, "error": "ConsistencyError: x"}
    assert workloads.check_deadline_op(err, [], 15)
    solve_op = {"op": "x", "t": 0.5, "product": "C4xC4", "variant": "exact", "error": "x"}
    wl = workloads.Solve(0, "")
    wl.setup()
    _, per_op = wl.check([{"wall": 0.5, "ops": [solve_op]}])
    assert per_op == [["raised x"]]


def test_late_timeout_fails():
    assert workloads.check_deadline_op(_timeout(1.0 + 2 * workloads.DEADLINE_ALLOWANCE_S,
                                                7, 15), [], 15)


@pytest.mark.parametrize("lower,upper", [(7, 14), (16, 18), (7, None), (None, 18)])
def test_bounds_that_miss_the_optimum_fail(lower, upper):
    assert workloads.check_deadline_op(_timeout(1.1, lower, upper), [], 15)


def test_bound_ratio():
    assert workloads.bound_ratio({"op": "x", "t": 1.0}) == 1.0
    assert workloads.bound_ratio(_timeout(1.1, 7, 18)) == pytest.approx(18 / 7)
    assert workloads.bound_ratio(_timeout(1.1, 5, None)) == 5.0
    assert workloads.bound_ratio(_timeout(1.1, None, 18)) == 9.0


def test_audit_counts_a_wrong_exact_value_as_a_failed_pair():
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    audit = workloads.Audit(0, out)
    audit.setup()
    passes = audit.run_pass()
    problems, per_op = audit.check(passes)
    assert problems == [] and per_op == [[]] * 6
    passes[0]["ops"][2]["record"]["exact"] += 1
    problems, per_op = audit.check(passes)
    assert problems == [] and [bool(w) for w in per_op] == [False, False, True,
                                                            False, False, False]


def test_tracer_splits_kernel_work_by_phase_and_restores_bindings():
    import trdprod
    from tracer import Tracer

    original = trdprod._kernels.bnb_min_weight
    tracer = Tracer()
    tracer.install(trdprod)
    try:
        solve.gamma_tr_exact(workloads.build_product(SPEC), budget=60)
    finally:
        tracer.uninstall()
    assert trdprod._kernels.bnb_min_weight is original
    m = tracer.metrics(1)
    assert m["kernels.bnb_min_weight.nodes"] > 0
    assert m["solve.proof.nodes"] + m["solve.lex.nodes"] == m["kernels.bnb_min_weight.nodes"]
    assert m["solve.lex.probes_found"] <= m["solve.lex.probes"]
    assert m["kernels.brute_force_scan.calls"] == 0 and m["bounds.pairs"] == 0
