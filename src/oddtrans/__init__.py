"""Odd-transversal structure of hypergraphs.

Exact GF(2) incidence-matrix algebra for deciding odd-transversality and
minimal non-odd-transversality, generators for the hypergraph families the
classification applies to, and adjacency-tensor numerics bounding the
least H-eigenvalue of minimal non-odd-bipartite hypergraphs.
"""

from .gf2 import BitMatrix, BitVector, rank, solve
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
from .transversal import (
    ClassificationReport,
    classify,
    edge_injection,
    find_odd_transversal,
    intersection_bound_check,
    minimal_subset_certificate,
)

__version__ = "0.1.0"

# The adjacency-tensor names load ``spectral``, and with it numpy, on first
# use, so the exact GF(2) commands never import numpy.
_SPECTRAL = (
    "PerronResult",
    "SpectraReport",
    "analyze_spectra",
    "bound_report",
    "flip_vector",
    "lambda_min_upper",
    "rayleigh",
    "spectral_radius",
)


def __getattr__(name: str):
    if name == "spectral" or name in _SPECTRAL:
        # Not ``from . import spectral``: its fromlist lookup calls this hook again.
        import importlib

        spectral = importlib.import_module(".spectral", __name__)
        return spectral if name == "spectral" else getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SPECTRAL, "spectral"})


__all__ = [
    "BitMatrix",
    "BitVector",
    "ClassificationReport",
    "DualResult",
    "Hypergraph",
    "HypergraphError",
    "InvariantError",
    "ParseError",
    "PerronResult",
    "SpectraReport",
    "analyze_spectra",
    "blowup",
    "bound_report",
    "build",
    "cayley",
    "classify",
    "cycle_graph",
    "edge_injection",
    "find_odd_transversal",
    "fixtures",
    "flip_vector",
    "format_hypergraph",
    "intersection_bound_check",
    "lambda_min_upper",
    "minimal_subset_certificate",
    "parse_hypergraph",
    "power",
    "projective_plane",
    "rank",
    "rayleigh",
    "simplex",
    "solve",
    "spectral_radius",
    "two_regular_random",
    "__version__",
]
