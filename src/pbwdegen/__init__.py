"""Exact-arithmetic toolkit for weighted PBW degenerations of type-A flag varieties.

Submodules:

* ``weights`` -- integer weight triangles, the cone of admissible weight
  systems, its face signatures and canonical representatives;
* ``degrees`` -- closed-form degrees of Pluecker coordinates and the gradings
  they form;
* ``fflv`` -- Dyck paths, FFLV patterns and the Weyl dimension oracle;
* ``tableaux`` -- PBW (semistandard) Young tableaux and the pattern
  bijection;
* ``ideals`` -- Pluecker relations, graded components and initial ideals
  over exact rationals;
* ``representations`` -- classical and degenerate module actions, cyclic
  module dimensions and the exponential substitution oracle;
* ``tropical`` -- the degree map into tropical coordinates and the explicit
  maximal cone;
* ``cli`` -- command-line front end.
"""

__version__ = "0.1.0"
