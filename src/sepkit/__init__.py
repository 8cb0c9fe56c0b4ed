"""sepkit: vertex-separator enumeration and treewidth approximation.

Core surfaces: Graph plus separator predicates (``graph``), the
vertex-capacity flow layer with the leftmost minimum separator
(``flow``), enumeration of all leftmost/important separators with their
Catalan-number caps (``leftmost``), brute-force oracles and fixtures
(``oracle``), the 5-approximation decomposer (``treewidth``), and
PACE-format I/O (``pace``). The flow inner loop runs on a compiled
kernel when built, with a pure-Python fallback selected at import.
"""

from .flow import (
    CutConstraints,
    DisjointPathSet,
    Separator,
    augment_paths,
    backend_name,
    leftmost_min_separator,
    max_disjoint_paths,
)
from .graph import (
    Graph,
    Leftness,
    SeparationParts,
    compare_leftness,
    connected_components,
    is_minimal_separator,
    is_separator,
    separation_parts,
)
from .leftmost import catalan, count_bounds, enumerate_important, enumerate_leftmost
from .treewidth import (
    Rejection,
    TreeDecomposition,
    decompose,
    td_width,
    to_nice,
    validate_td,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Leftness",
    "SeparationParts",
    "connected_components",
    "separation_parts",
    "is_separator",
    "is_minimal_separator",
    "compare_leftness",
    "CutConstraints",
    "DisjointPathSet",
    "Separator",
    "augment_paths",
    "max_disjoint_paths",
    "leftmost_min_separator",
    "catalan",
    "count_bounds",
    "enumerate_leftmost",
    "enumerate_important",
    "TreeDecomposition",
    "Rejection",
    "decompose",
    "validate_td",
    "td_width",
    "to_nice",
    "backend_name",
    "__version__",
]
