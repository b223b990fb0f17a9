"""Streaming ground-set pruning for budget-constrained monotone maximization.

Prune huge ground sets in a single pass through the data, for one knapsack
budget or a whole range of budgets at once, then run standard greedy
heuristics on the survivors and measure how much of the achievable value the
pruning kept.
"""

from .baselines import BaselineConfig, random_prune, ss_prune, top_k_prune
from .errors import InputError, ParseError
from .graphio import (Graph, assign_knapsack_costs, from_edges, generate,
                      load_edge_list, parse_edge_list, read_id_file,
                      write_edge_list, write_id_file)
from .metrics import EvalRecord, evaluate_pruning, sweep_budgets
from .objectives import (CoverageOracle, CustomOracle, CutOracle, EvalState,
                         InfluenceOracle, LiveEdgeSamplePool, Oracle,
                         SimilarityCutOracle, SimilarityKernel, estimate_gamma,
                         load_similarity_kernel, oracle_state)
from .pruning import (DeletionEvent, LadderParams, PruneParams, PruneReport,
                      SinglePrunerState, alpha_multi, alpha_single,
                      budget_ladder, check_nhi, geometric_recovery_steps,
                      ladder_size, process_element, quickprune,
                      quickprune_single, size_bound)
from .solvers import (Solution, brute_force_opt, cardinality_solver,
                      greedy_cardinality, greedy_knapsack, knapsack_solver)

__version__ = "0.1.0"
