"""Polarized root lattices, Coxeter elements, and their spectra.

Subpackage map:

- ``intmat``    exact integer matrices as tuples of int rows (no numpy)
- ``rootsys``   ADE catalog: Cartan matrices, exponents of a system or a join, tree levels, colorings
- ``lattice``   polarized lattices, Coxeter elements, joins, Steinberg splits
- ``gabrielov`` basis moves, the E8/E6 join records and factorizations, Weyl-word checks
- ``spectral``  closed-form eigenvectors, the phase dressing (the Cartan-to-Coxeter transfer), PF vector
- ``qdeform``   one-parameter deformation A(q) and its spectrum law, proved exactly
- ``ising``     transverse-field Ising chain with momentum resolution
- ``cli``       ``coxlat`` command-line entry point

Import names from the submodules, e.g. ``from coxlat.lattice import coxeter``.
"""

__version__ = "0.1.0"
