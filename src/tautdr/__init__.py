"""tautdr: exact tautological-class computations on moduli of stable curves.

Subpackages cover stable-graph combinatorics, psi/kappa intersection
numbers, r-parametrised ramification classes with constant-term (double
ramification) extraction and vanishing certificates, bipartite
localization graphs with their residue series, and a small insertion-ring
layer with axiom predicates.
"""

from .stable_graphs import (
    ComplexityBoundError,
    StableGraph,
    automorphism_count,
    enumerate_stable_graphs,
    trivial_graph,
)
from .intersection import (
    DecoratedStratum,
    TautClass,
    fundamental,
    kappa_class,
    kappa_psi_integral,
    psi_class,
    psi_integral,
    stratum_class,
)
from .pixton import (
    constant_term,
    dr_cycle,
    pixton_class,
    r_polynomial,
    vanishing_check,
)
from .bipartite import (
    BipartiteGraph,
    EnumerationBounds,
    RelativeVertex,
    RubberVertex,
    TopologicalType,
    enumerate_bipartite,
    genus_of,
    rho_minus,
)
from .series import (
    AssembledT0,
    LaurentSeries,
    SymPoly,
    TruncationError,
    assemble_t0,
    c_gamma0,
    c_gamma_infty,
    rubber_vertex_series,
)
from .cohft import (
    InsertionElement,
    cohft_axiom_predicates,
    example_omega_values,
    insertion_pairing,
    loop_axiom_demo,
)

__version__ = "0.1.0"
