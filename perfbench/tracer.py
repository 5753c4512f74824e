"""In-memory span tracer that wraps trdprod's functions where callers look them up.

trdprod calls across modules either through a module attribute
(``_kernels.bnb_min_weight``, ``construct.product_trdf_from_factors``) or
through a name imported into the caller's namespace (``bounds.gamma_tr_exact``).
The tracer replaces exactly those bindings for the duration of a traced pass
and restores them afterwards, so no file under ``src/`` changes.

A span is (name, parent index, start, end, info). A call made while a span
of the same name is open is not recorded again, so busy time never counts a
nested call twice. The kernels resume from a state array that they update in
place; its slots give the work done per call (slot 4 nodes and slot 9 the
early-exit flag of the searches, slot 2 labelings of the scan).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter

# (module, attribute, span name, kind); kind selects what is read from the state array
_TARGETS = [
    ("_kernels", "brute_force_scan", "kernels.brute_force_scan", "scan"),
    ("_kernels", "bnb_min_weight", "kernels.bnb_min_weight", "search"),
    ("_kernels", "bnb_max_twos", "kernels.bnb_max_twos", "search"),
    ("solve", "_brute_scan", "solve.oracle", None),
    ("solve", "greedy_total_dominating_set", "solve.seed", None),
    ("solve", "gamma_t_exact", "solve.subsets", None),
    ("solve", "rho_exact", "solve.subsets", None),
    ("solve", "rho_o_exact", "solve.subsets", None),
    ("bounds", "gamma_t_exact", "solve.subsets", None),
    ("bounds", "rho_exact", "solve.subsets", None),
    ("bounds", "rho_o_exact", "solve.subsets", None),
    ("classify", "gamma_t_exact", "solve.subsets", None),
    ("bounds", "gamma_tr_bruteforce", "bounds.oracle", None),
    ("bounds", "_verify_pair", "bounds.pair", None),
    ("bounds", "verify_theorems", "bounds.verify_theorems", None),
    ("bounds", "factor_profile", "bounds.factor_profile", None),
    ("bounds", "pair_bounds", "bounds.pair_bounds", None),
    ("bounds", "gamma_tr_exact", "bounds.exact", None),
    ("bounds", "gamma_tr_max_v2", "bounds.max_v2", None),
    ("bounds", "genlower_check", "bounds.genlower", None),
    ("bounds", "direct_product", "graph.direct_product", None),
    ("construct", "direct_product", "graph.direct_product", None),
    ("classify", "direct_product", "graph.direct_product", None),
    ("construct", "product_trdf_from_factors", "construct", None),
    ("construct", "product_trdf_from_total_dom_sets", "construct", None),
    ("construct", "product_eod_set", "construct", None),
    ("construct", "small_value_construction", "construct", None),
    ("classify", "product_eod_set", "construct", None),
    ("classify", "classify_small_product", "classify.classify_small_product", None),
    ("classify", "is_eod_graph", "classify.is_eod_graph", None),
    ("catalog", "enumerate_catalog", "catalog.enumerate_catalog", None),
]


class Tracer:
    """Collects spans while installed; ``metrics`` turns them into per-layer figures."""

    def __init__(self):
        self.spans: list = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._saved: list = []
        self._found = None

    def _wrap(self, fn, name: str, kind: str | None):
        spans, stack, is_open = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            t0 = _clock()
            if is_open.get(name):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            is_open[name] = 1
            info = None
            if kind == "search":
                st = args[11]
                before = (int(st[4]), int(st[9]))
            elif kind == "scan":
                st = args[5]
                before = int(st[2])
            t1 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = _clock()
                if kind == "search":
                    info = {"start_nodes": before[0], "nodes": int(st[4]) - before[0],
                            "early": before[1]}
                elif kind == "scan":
                    info = {"labelings": int(st[2]) - before}
                stack.pop()
                is_open[name] = 0
                spans[idx] = (name, parent, t1, t2, info)
                self.overhead_s += (t1 - t0) + (_clock() - t2)
            if kind == "search":
                info["status"] = int(result)
            return result

        return traced

    def install(self, package) -> None:
        self._found = package._kernels.FOUND
        for mod_name, attr, name, kind in _TARGETS:
            mod = getattr(package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, kind))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t1 = _clock()
        try:
            yield
        finally:
            t2 = _clock()
            self._stack.pop()
            self.spans[idx] = (name, parent, t1, t2, None)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"],
                       "spans": self.spans}, fh)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per pass (totals divided by the number of passes)."""
        child_s = [0.0] * len(self.spans)
        for name, parent, t1, t2, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t2 - t1
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, _, t1, t2, _) in enumerate(self.spans):
            busy[name] = busy.get(name, 0.0) + (t2 - t1)
            self_s[name] = self_s.get(name, 0.0) + (t2 - t1 - child_s[i])
            calls[name] = calls.get(name, 0) + 1

        def pick(kernel, early):
            return [(t2 - t1, info) for name, _, t1, t2, info in self.spans
                    if name == kernel and info["early"] == early]

        scans = [info["labelings"] for name, _, _, _, info in self.spans
                 if name == "kernels.brute_force_scan"]
        out = {"kernels.brute_force_scan.labelings": sum(scans)}
        for kernel, plain, lex, found in (
                ("kernels.bnb_min_weight", "solve.proof", "solve.lex", True),
                ("kernels.bnb_max_twos", "solve.max2", "solve.max2_lex", False)):
            proof, probes = pick(kernel, 0), pick(kernel, 1)
            out[kernel + ".nodes"] = sum(i["nodes"] for _, i in proof + probes)
            out[plain + ".nodes"] = sum(i["nodes"] for _, i in proof)
            out[plain + ".busy_s"] = sum(s for s, _ in proof)
            out[lex + ".probes"] = sum(1 for _, i in probes if i["start_nodes"] == 0)
            out[lex + ".nodes"] = sum(i["nodes"] for _, i in probes)
            out[lex + ".busy_s"] = sum(s for s, _ in probes)
            if found:
                out[lex + ".probes_found"] = sum(
                    1 for _, i in probes if i["status"] == self._found)
        for kernel, work in (("kernels.brute_force_scan", "labelings"),
                             ("kernels.bnb_min_weight", "nodes"),
                             ("kernels.bnb_max_twos", "nodes")):
            out[kernel + ".calls"] = calls.get(kernel, 0)
            out[kernel + ".busy_s"] = busy.get(kernel, 0.0)
            b = out[kernel + ".busy_s"]
            out[f"{kernel}.{work}_per_s"] = out[f"{kernel}.{work}"] / b if b > 0 else 0.0
        out["solve.oracle.calls"] = calls.get("solve.oracle", 0)
        out["solve.oracle.self_s"] = self_s.get("solve.oracle", 0.0)
        out["bounds.pairs"] = calls.get("bounds.pair", 0)
        out["bounds.pair.self_s"] = self_s.get("bounds.pair", 0.0)
        out["construct.calls"] = calls.get("construct", 0)
        out["graph.direct_product.calls"] = calls.get("graph.direct_product", 0)
        for name in ("solve.oracle", "bounds.oracle", "solve.seed", "solve.subsets",
                     "bounds.pair", "bounds.factor_profile", "bounds.pair_bounds",
                     "bounds.exact", "bounds.max_v2", "bounds.genlower", "construct",
                     "classify.classify_small_product", "classify.is_eod_graph",
                     "graph.direct_product", "catalog.enumerate_catalog"):
            out[name + ".busy_s"] = busy.get(name, 0.0)
        out["cli.verify.self_s"] = (busy.get("cli.main", 0.0)
                                    - busy.get("bounds.verify_theorems", 0.0))
        out["trace.overhead_s"] = self.overhead_s
        rates = {k for k in out if k.endswith("_per_s")}
        return {k: (v if k in rates else v / passes) for k, v in sorted(out.items())}
