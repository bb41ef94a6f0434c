"""catmin: induced pseudometrics, metric-minimizing graphs, comparison-triangle
disc gluing and saddle-surface machinery for maps into nonpositively curved
targets."""

from .pseudometric import PseudometricMatrix, verify_pseudometric
from .targets import EuclideanSpace, TargetSpace
from .mesh import MappedDisc, build_refined_graph
from .induced import (
    connecting_pseudometric,
    intrinsic_pseudometric,
    length_pseudometric,
    ordering_chain_report,
)

__version__ = "0.1.0"
