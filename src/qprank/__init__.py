"""Classical and Szegedy-quantized PageRank on directed networks."""

from .analysis import (AttackReport, DegeneracyProfile, FidelitySweep, IprScaling,
                       PowerLawFit, attack_sensitivity, damping_sweep,
                       degeneracy_profile, fidelity, ipr, ipr_scaling,
                       loglog_slope, power_law_fit, rank_correlation, rank_vector,
                       top_nodes)
from .graph import (DirectedGraph, GraphFormatError, benchmark_graph, generate,
                    generate_binary_tree, generate_hierarchical, generate_scale_free,
                    graph_digest, out_degree, parse_edge_list, parse_graph, parse_pajek,
                    remove_nodes, to_edge_list, to_pajek)
from .pagerank import (GoogleMatrix, HyperlinkMatrix, PowerResult,
                       classical_pagerank, google_matrix, hyperlink_matrix,
                       patch_dangling, power_method, second_eigenvalue_modulus)
from .szegedy import (DynamicalSubspace, QuantumRankSeries, WalkOperator, average_drift,
                      build_dynamical_subspace, evolve, evolve_spectral, quantum_pagerank,
                      quantum_pageranks, quantum_rank_series, walk_operator)

__version__ = "0.1.0"
