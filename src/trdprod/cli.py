"""Command-line front end.

Graphs are accepted as family shorthand (K3, C4, P4, K2,3, W5, F6, K5-M,
prismC3), as a path to a file holding graph6 text or edge-list JSON, or as a
graph6 literal. Output is JSON with sorted keys so fixed inputs produce
byte-identical reports.

Exit codes: 0 success (and zero violations for verify), 1 domain error or
violations found, 2 usage. A domain error is reported as JSON on stderr; a
solver timeout adds the certified lower_bound and upper_bound it carries and
the nodes searched.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import bounds, catalog, classify, construct, families, graph6, solve
from .errors import GraphInputError, PreconditionError, SolverTimeout, TrdError
from .graph import Graph, direct_product, from_json_dict


def _load_graph(token: str) -> Graph:
    if os.path.exists(token):
        try:
            with open(token, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphInputError(f"cannot read graph file {token}: {exc}") from None
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GraphInputError(f"bad edge-list JSON in {token}: {exc}") from None
            return from_json_dict(data)
        if not text:
            raise GraphInputError(f"graph file {token} is empty")
        g = graph6.parse_graph6(text.splitlines()[0])
        return g.relabeled(os.path.basename(token))
    return families.parse_graph_token(token)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_graph(g: Graph, fmt: str) -> None:
    if fmt == "graph6":
        print(graph6.emit_graph6(g))
    else:
        _emit(g.to_json_dict())


def _cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    _emit(bounds.factor_profile(g, args.budget).to_json_dict())
    return 0


def _cmd_product(args) -> int:
    g = _load_graph(args.graph_g)
    h = _load_graph(args.graph_h)
    _emit_graph(direct_product(g, h).base, args.emit)
    return 0


def _cmd_gammatr(args) -> int:
    g = _load_graph(args.graph)
    if args.max_v2:
        res = solve.gamma_tr_max_v2(g, args.budget)
    else:
        res = solve.gamma_tr_exact(g, args.budget)
    _emit(res.to_json_dict())
    return 0


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph_g)
    h = _load_graph(args.graph_h)
    rep = bounds.pair_bounds(bounds.factor_profile(g, args.budget),
                             bounds.factor_profile(h, args.budget))
    if args.exact:
        rep.exact = solve.gamma_tr_exact(direct_product(g, h).base, args.budget).value
    rep.verdict = classify.classify_small_product(g, h)
    _emit(rep.to_json_dict())
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph_g)
    h = _load_graph(args.graph_h)
    _emit(classify.classify_small_product(g, h).to_json_dict())
    return 0


def _cmd_construct(args) -> int:
    g = _load_graph(args.graph_g)
    h = _load_graph(args.graph_h)
    if args.case == "factors":
        fg = solve.gamma_tr_max_v2(g, args.budget).witness
        fh = solve.gamma_tr_max_v2(h, args.budget).witness
        out = construct.product_trdf_from_factors(fg, fh)
    elif args.case == "tdsets":
        out = construct.product_trdf_from_total_dom_sets(
            solve.gamma_t_exact(g).witness, solve.gamma_t_exact(h).witness)
    elif args.case == "eod":
        sg = classify.is_eod_graph(g)
        sh = classify.is_eod_graph(h)
        if sg is None or sh is None:
            raise PreconditionError("both factors need an efficient open dominating set")
        out = construct.product_eod_set(sg, sh)
        doc = out.to_json_dict()
        doc["size"] = out.size
        _emit(doc)
        return 0
    else:
        out = construct.small_value_construction(args.case, g, h)
    doc = out.to_json_dict()
    doc["weight"] = out.weight
    _emit(doc)
    return 0


def _cmd_verify(args) -> int:
    cat = catalog.enumerate_catalog(args.max_n)
    rep = bounds.verify_theorems(list(cat.graphs), budget=args.budget, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json_dict(), fh, sort_keys=True, indent=2)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rep.csv_rows())
    print(f"catalog: {len(cat.graphs)} graphs up to {args.max_n} vertices,"
          f" {len(rep.pairs)} factor pairs")
    print(f"violations: {len(rep.violations)}")
    for v in rep.violations:
        print(f"  {v}")
    if rep.skipped:
        print(f"skipped (budget): {', '.join(rep.skipped)}")
    if rep.eod_slack_min is not None:
        print(f"minimum open-packing lower bound slack observed: {rep.eod_slack_min}")
    return 0 if rep.ok else 1


def _cmd_family(args) -> int:
    kind = args.kind
    # The first parameters are the kind's sizes and the rest its operand
    # graphs. families.generate checks the kind and both counts, so the
    # parameters are parsed only when the operand count fits.
    _, nsizes, nops = families.FAMILY_BUILDERS.get(kind, (None, 0, 0))
    sizes, operands = tuple(args.params[:nsizes]), tuple(args.params[nsizes:])
    if kind in families.FAMILY_BUILDERS and len(operands) == nops:
        try:
            sizes = tuple(int(p) for p in sizes)
        except ValueError:
            raise GraphInputError(f"family {kind!r} size parameters must be integers,"
                                  f" got {list(sizes)}") from None
        operands = tuple(_load_graph(p) for p in operands)
    g = families.generate(kind, sizes, operands)
    _emit_graph(g, args.emit)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trdprod",
        description="Total Roman domination invariants of graphs and their direct products")
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_opt(p):
        p.add_argument("--budget", type=float, default=None,
                       help=f"solver budget in seconds (default: {solve.DEFAULT_BUDGET_S:g})")

    p = sub.add_parser("invariants", help="exact invariant profile of one graph")
    p.add_argument("graph")
    budget_opt(p)
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("product", help="build the direct product of two graphs")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--emit", choices=["graph6", "json"], default="graph6")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("gammatr", help="exact total Roman domination number")
    p.add_argument("graph")
    p.add_argument("--max-v2", action="store_true",
                   help="among optimal labelings, maximize the number of 2-labels")
    budget_opt(p)
    p.set_defaults(fn=_cmd_gammatr)

    p = sub.add_parser("bounds", help="all pair bounds with applicability")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--exact", action="store_true", help="also solve the product exactly")
    budget_opt(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("classify", help="small-value verdict for a factor pair")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("construct", help="emit a certified construction on the product")
    p.add_argument("case",
                   choices=["factors", "tdsets", "eod", *construct.SMALL_CASES])
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    budget_opt(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="exhaustive theorem audit over a small-graph catalog")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--csv", help="write a CSV summary here")
    budget_opt(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("family", help="generate a parametric family graph")
    p.add_argument("kind")
    p.add_argument("params", nargs="*")
    p.add_argument("--emit", choices=["graph6", "json"], default="graph6")
    p.set_defaults(fn=_cmd_family)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrdError as exc:
        doc = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, SolverTimeout):
            doc.update(lower_bound=exc.lower_bound, upper_bound=exc.upper_bound,
                       nodes=exc.nodes)
        json.dump(doc, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
