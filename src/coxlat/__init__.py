"""Polarized root lattices, Coxeter elements, and their spectra.

Subpackage map:

- ``intmat``    exact integer matrix helpers (object-dtype numpy)
- ``rootsys``   ADE catalog: Cartan matrices, exponents, bipartite colorings
- ``lattice``   polarized lattices, Coxeter elements, joins, Steinberg splits
- ``gabrielov`` basis moves, tensor-basis factorizations, Weyl-word checks
- ``spectral``  closed-form eigenvectors, Cartan/Coxeter transfer, PF vector
- ``qdeform``   one-parameter deformation A(q) and its spectrum law
- ``ising``     transverse-field Ising chain with momentum resolution
- ``cli``       ``coxlat`` command-line entry point
"""

from __future__ import annotations

from .gabrielov import (
    BasedLattice,
    alpha,
    apply_word,
    beta,
    conjugation_report_e6,
    conjugation_report_e8,
    e6_factorization,
    e8_factorization,
    find_conjugator,
    gamma,
    root_image_count,
    weyl_apply,
)
from .ising import IsingParams, build_hamiltonian, momentum_spectrum
from .lattice import (
    PolarizedLattice,
    bipartite_coxeter,
    coxeter,
    gauge_transform,
    join,
    standard_polarization,
    steinberg_decomposition,
)
from .qdeform import QDeformedCartan, conjugation_certificate, deform, q_spectrum
from .rootsys import RootSystemId, cartan_matrix, exponents, root_system
from .spectral import (
    cartan_coxeter_transfer,
    cartan_spectrum,
    e6_eigenvector,
    e8_eigenvector,
    perron_frobenius,
    transfer_eigenvalue,
    zamolodchikov_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BasedLattice",
    "IsingParams",
    "PolarizedLattice",
    "QDeformedCartan",
    "RootSystemId",
    "alpha",
    "apply_word",
    "beta",
    "bipartite_coxeter",
    "build_hamiltonian",
    "cartan_coxeter_transfer",
    "cartan_matrix",
    "cartan_spectrum",
    "conjugation_certificate",
    "conjugation_report_e6",
    "conjugation_report_e8",
    "coxeter",
    "deform",
    "e6_eigenvector",
    "e6_factorization",
    "e8_eigenvector",
    "e8_factorization",
    "exponents",
    "find_conjugator",
    "gamma",
    "gauge_transform",
    "join",
    "momentum_spectrum",
    "perron_frobenius",
    "q_spectrum",
    "root_image_count",
    "root_system",
    "standard_polarization",
    "steinberg_decomposition",
    "transfer_eigenvalue",
    "weyl_apply",
    "zamolodchikov_vector",
]
