"""Exact combinatorics of convex polygon triangulations.

Counting and structure of triangulations of a labeled convex n-gon:
ears and internal triangles, dihedral symmetry classes, the composition
correspondence for 2-eared triangulations, and counts of triangulations
disjoint from (sharing no diagonal with) a given one.  All arithmetic is
in exact integers; a rational prefactor becomes an exact division.
"""

from polytri.triangulation import (
    DualTree,
    Triangulation,
    diagonal,
    enumerate_triangulations,
    is_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "DualTree",
    "Triangulation",
    "diagonal",
    "enumerate_triangulations",
    "is_triangulation",
    "__version__",
]
