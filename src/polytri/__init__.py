"""Exact combinatorics of convex polygon triangulations.

Counting and structure of triangulations of a labeled convex n-gon:
ears and internal triangles, dihedral symmetry classes, the composition
correspondence for 2-eared triangulations, and counts of triangulations
disjoint from (sharing no diagonal with) a given one.  All arithmetic is
in exact integers; a rational prefactor becomes an exact division.

The exports below come from polytri.triangulation, which is imported on
the first access to one of them (PEP 562), so `import polytri` imports no
submodule and a command's Ctrl-C handler is in place before any is.
"""

__version__ = "0.1.0"

__all__ = [
    "DualTree",
    "Triangulation",
    "diagonal",
    "enumerate_triangulations",
    "is_triangulation",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:
        from polytri import triangulation

        return getattr(triangulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
