"""Poset pattern occurrence counting, modular decomposition, linear
extension counting, and the 3-SAT pattern-matching reduction."""

from .core import (
    OccurrenceFlavor,
    OccurrenceMap,
    Permutation,
    Poset,
    antichain,
    chain,
    is_occurrence,
    poset_from_permutation,
    poset_from_relations,
    restrict,
)
from .decomp import (
    ChainDecomposition,
    GallaiTree,
    dilworth,
    gallai_tree,
    intrinsic_width,
    is_module,
    quotient,
    width,
)
from .lecount import (
    canonical_code,
    count_automorphisms_bruteforce,
    count_automorphisms_dim2,
    count_le_bruteforce,
    count_le_downset_dp,
    count_linear_extensions,
    count_occurrences_in_chain,
    downset_lattice,
    inflate,
    lattice_as_poset,
)
from .occur import (
    count_chain_occurrences,
    count_occurrences,
    enumerate_occurrences,
    match_permutation,
)
from .sat import Cnf3, build_gadget, count_satisfying, parse_dimacs, verify_reduction

__all__ = [name for name in dir() if not name.startswith("_")]
