"""Total Roman domination of graphs and their direct products.

Exact solvers for gamma_tR, gamma_t and the packing numbers, certified
labeling constructions on direct products, structural classifiers, a bound
evaluation engine, and an exhaustive small-graph verification harness.
"""

from .errors import (ConsistencyError, Graph6ParseError, GraphInputError,
                     HypothesisError, PreconditionError, SizeLimitError,
                     SolverTimeout, TrdError)
from .graph import (Graph, ProductGraph, central_triangle, direct_product,
                    from_edge_list, has_isolated_vertex, is_bipartite,
                    is_connected, is_regular, is_triangle_free)
from .graph6 import emit_graph6, parse_graph6
from .families import generate, parse_graph_token
from .labeling import (LabelFunction, VertexSet, is_efficient_open_dominating,
                       is_open_packing, is_packing, is_total_dominating,
                       is_total_roman_dominating, trdf_from_total_dominating_set)
from .solve import (ParetoPoint, SolveResult, gamma_t_exact,
                    gamma_tr_bruteforce, gamma_tr_exact, gamma_tr_max_v2,
                    rho_exact, rho_o_exact, trdf_pareto_frontier)
from .construct import (product_eod_set, product_trdf_from_factors,
                        product_trdf_from_total_dom_sets, small_clause,
                        small_value_construction)
from .classify import (SmallVerdict, certify_regular_eod,
                       certify_regular_eod_product, classify_small_product,
                       is_eod_graph)
from .bounds import (FactorProfile, PairReport, factor_profile, genlower_check,
                     pair_bounds, verify_theorems)
from .catalog import Catalog, enumerate_catalog

__version__ = "0.1.0"
