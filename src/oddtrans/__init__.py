"""Odd-transversal structure of hypergraphs.

Exact GF(2) incidence-matrix algebra for deciding odd-transversality and
minimal non-odd-transversality, generators for the hypergraph families the
classification applies to, and adjacency-tensor numerics bounding the
least H-eigenvalue of minimal non-odd-bipartite hypergraphs.
"""

from .gf2 import BitMatrix, BitVector, nullspace_dim, rank, solution_count, solve
from .generators import (
    blowup,
    cayley,
    cycle_graph,
    fixtures,
    power,
    projective_plane,
    simplex,
    two_regular_random,
)
from .hgio import ParseError, format_hypergraph, parse_hypergraph
from .hypergraph import DualResult, Hypergraph, HypergraphError, InvariantError, build
from .spectral import (
    BoundReport,
    PerronResult,
    SpectraReport,
    analyze_spectra,
    bound_report,
    flip_vector,
    lambda_min_upper,
    rayleigh,
    spectral_radius,
)
from .transversal import (
    ClassificationReport,
    EdgeInjection,
    brute_force_odd_transversal,
    classify,
    count_odd_transversals,
    edge_injection,
    find_odd_transversal,
    intersection_bound_check,
    minimal_subset_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "BoundReport",
    "ClassificationReport",
    "DualResult",
    "EdgeInjection",
    "Hypergraph",
    "HypergraphError",
    "InvariantError",
    "ParseError",
    "PerronResult",
    "SpectraReport",
    "analyze_spectra",
    "blowup",
    "bound_report",
    "brute_force_odd_transversal",
    "build",
    "cayley",
    "classify",
    "count_odd_transversals",
    "cycle_graph",
    "edge_injection",
    "find_odd_transversal",
    "fixtures",
    "flip_vector",
    "format_hypergraph",
    "intersection_bound_check",
    "lambda_min_upper",
    "minimal_subset_certificate",
    "nullspace_dim",
    "parse_hypergraph",
    "power",
    "projective_plane",
    "rank",
    "rayleigh",
    "simplex",
    "solution_count",
    "solve",
    "spectral_radius",
    "two_regular_random",
    "__version__",
]
