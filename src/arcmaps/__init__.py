"""Finite permutation groups, arc-transitive generating data, and regular maps
of square-free Euler characteristic, verified by exhaustive desk-scale search."""

__version__ = "0.1.0"

from .groups import (
    DEFAULT_CAP,
    GroupTooLargeError,
    PermGroup,
    QuotientGroup,
    generate,
    group_from_elements,
    intersection,
)
from .integers import FactoredInteger, factor, is_squarefree
from .maps import (
    MultiGraph,
    RegularMapModel,
    build_map,
    euler_characteristic_closed,
    euler_characteristic_counted,
    is_cartesian_square_of_cycle,
    is_multicycle,
    underlying_graph,
)
from .perms import Permutation
from .products import central_product, direct_product, semidirect_product, wreath_by_s2
from .structure import (
    HypothesisReport,
    IsoClassTag,
    fitting,
    isomorphic,
    o_p,
    recognize,
    satisfies_hypothesis,
    sylow,
)
from .triples import (
    GeneratingTriple,
    check_triple,
    count_involutions,
    exists,
    find_any,
    quotient_behavior,
)

__all__ = [
    "DEFAULT_CAP",
    "FactoredInteger",
    "GeneratingTriple",
    "GroupTooLargeError",
    "HypothesisReport",
    "IsoClassTag",
    "MultiGraph",
    "PermGroup",
    "Permutation",
    "QuotientGroup",
    "RegularMapModel",
    "build_map",
    "central_product",
    "check_triple",
    "count_involutions",
    "direct_product",
    "euler_characteristic_closed",
    "euler_characteristic_counted",
    "exists",
    "factor",
    "find_any",
    "fitting",
    "generate",
    "group_from_elements",
    "intersection",
    "is_cartesian_square_of_cycle",
    "is_multicycle",
    "is_squarefree",
    "isomorphic",
    "o_p",
    "quotient_behavior",
    "recognize",
    "satisfies_hypothesis",
    "semidirect_product",
    "sylow",
    "underlying_graph",
    "wreath_by_s2",
]
