"""Polychromatic edge-colorings of complete graphs.

Constructions for the 1-factor, 2-factor and Hamiltonian-cycle families,
exact polychromaticity verification, majority certificates and their
adversarial witnesses, local transforms, and small-n optimum search.
"""

from .constructions import FamilyKind, build, build_ordered, class_sizes, palette_size
from .core import (
    EdgeColoring,
    InheritedColoring,
    MajorityCertificate,
    VertexOrdering,
    comb_certificate,
    inherited_coloring,
    is_ordered_at,
    is_unitary,
)
from .families import (
    AllowedGraph,
    CapExceededError,
    SubgraphWitness,
    enumerate_members,
    find_member,
    find_member_containing,
)
from .search import SearchReport, brute_force_poly, structured_poly, theorem_table
from .transforms import (
    ImproveResult,
    MaxVertexProfile,
    improve_toward_combed,
    max_vertex_profile,
    recolor_unitary_triple,
    twist,
    two_switch,
)
from .verify import (
    NoWitness,
    PolyCertificate,
    adversarial_member,
    is_polychromatic,
    majority_certificate,
    majority_upper_bound,
)

__all__ = [
    "AllowedGraph",
    "CapExceededError",
    "EdgeColoring",
    "FamilyKind",
    "ImproveResult",
    "InheritedColoring",
    "MajorityCertificate",
    "MaxVertexProfile",
    "NoWitness",
    "PolyCertificate",
    "SearchReport",
    "SubgraphWitness",
    "VertexOrdering",
    "adversarial_member",
    "brute_force_poly",
    "build",
    "build_ordered",
    "class_sizes",
    "comb_certificate",
    "enumerate_members",
    "find_member",
    "find_member_containing",
    "improve_toward_combed",
    "inherited_coloring",
    "is_ordered_at",
    "is_polychromatic",
    "is_unitary",
    "majority_certificate",
    "majority_upper_bound",
    "max_vertex_profile",
    "palette_size",
    "recolor_unitary_triple",
    "structured_poly",
    "theorem_table",
    "twist",
    "two_switch",
]
