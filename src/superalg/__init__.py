"""Exact computer algebra for Lie superalgebras.

Builds Lie superalgebras from structure constants or supermatrices, computes
the prolongation of a nonpositively graded algebra (Tanaka's; Cartan's at
depth 1) with a polynomial vector field realization, the degree-graded
cohomology H^2(g_minus; g_star) whose classes are the obstructions to
flattening almost complex and related structures, and normalizes real forms of complex Grassmann algebras.  All arithmetic is exact
over QQ or QQ(i).
"""

__version__ = "0.1.0"

from .scalars import GaussianRational, I, gaussian, rational  # noqa: F401
