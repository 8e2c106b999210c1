"""Exact certification of graph cores via unique vector colorings.

The package certifies optima of the vector-coloring relaxation by exact
integer linear algebra (never floating point), generates the Kneser,
q-Kneser and Hamming distance-k families with reproducible vertex orders,
and decides the known homomorphisms between family members with equal
vector chromatic number.
"""

from .certify import (
    CanonicalGram,
    CertReport,
    SandwichCertificate,
    SpectralData,
    UvcResult,
    augmented_graph,
    canonical_gram,
    core_certificate,
    edge_gram_matrix,
    is_locally_injective_gram,
    sandwich_core_certificate,
    spectral_data,
    uvc_test,
    vector_chromatic,
)
from .exact import (
    charpoly,
    divide_out_root,
    eval_poly_at_int,
    eval_poly_at_matrix,
)
from .families import (
    cayley_z2,
    gaussian_binomial,
    hamming_h,
    hamming_h_prime,
    kneser,
    q_bracket,
    q_cube,
    q_kneser,
)
from .graphs import (
    Graph,
    complement,
    components,
    distance_two_graph,
    from_edges,
    is_bipartite,
    is_complete_multipartite,
    is_connected,
    is_regular,
    is_spanning_subgraph,
    parse_graph6,
    srg_params,
    write_graph6,
)
from .homs import (
    HomVerdict,
    VertexMap,
    brute_force_hom,
    hamming_hom_exists,
    hamming_hom_map,
    kneser_hom_exists,
    kneser_hom_map,
    q_cube_core_classification,
    q_kneser_necessary,
    verify_homomorphism,
)
from .walkreg import (
    WalkRegularity,
    distinct_eigenvalue_count,
    is_one_walk_regular,
    is_two_walk_regular,
    walk_regularity,
)

__version__ = "0.1.0"

kernel_backend = "python"  # the one kernel lane: elimination on Python ints
