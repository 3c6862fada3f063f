"""Arithmetic of singular K3 surfaces.

A singular K3 surface is determined by an even positive definite binary
quadratic form, its transcendental intersection form.  This package carries
out the computations that determination makes possible: class groups and
genus theory of such forms, the CM lattices and elliptic factors attached to
a form, j-invariants and ring class polynomials at certified precision,
explicit Weierstrass models for the associated elliptic fibrations, and
upper/lower bounds (sometimes exact answers) for the degree of the field of
definition.
"""

import importlib

from .classgroup import (
    ClassGroup,
    FundamentalData,
    GenusPartition,
    class_group,
    class_number,
    classes_per_genus,
    distinct_fields,
    fundamental_data,
    genus_characters,
    genus_partition,
    is_one_class_per_genus,
    is_two_torsion,
    reduced_primitive_forms,
    scan_one_class_per_genus,
)
from .errors import (
    FieldMismatch,
    ImprimitiveInput,
    InconsistentPair,
    InputTooLarge,
    InvalidDiscriminant,
    MismatchedDiscriminant,
    NotNegativeDiscriminant,
    NotPositiveDefinite,
    NotReduced,
    ParseError,
    PrecisionExhausted,
    SingK3Error,
)
from .forms import Form, compose, power, principal_form

# Names of the numeric layers, imported on first use: the class group verbs
# never need mpmath or the layers built on it.
_LAZY = {
    "BoundsReport": "k3",
    "SurfaceClass": "k3",
    "WeierstrassModel": "k3",
    "analyze": "k3",
    "genus_of_transcendental_lattice": "k3",
    "inose_pencil": "k3",
    "kummer_equation": "k3",
    "kummer_reduction": "k3",
    "lem_bounds_applies": "k3",
    "surface_class": "k3",
    "QuadElement": "lattices",
    "QuadLattice": "lattices",
    "TauPair": "lattices",
    "homothety_equal": "lattices",
    "lattice_from_form": "lattices",
    "minimal_form": "lattices",
    "multiply": "lattices",
    "shioda_mitani_check": "lattices",
    "sm_factors": "lattices",
    "tau_from_form": "lattices",
    "DEFAULT_PRECISION_BITS": "modular",
    "ClassPolynomial": "modular",
    "class_polynomial": "modular",
    "j_of_form": "modular",
}

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ClassGroup",
    "ClassPolynomial",
    "DEFAULT_PRECISION_BITS",
    "FieldMismatch",
    "Form",
    "FundamentalData",
    "GenusPartition",
    "ImprimitiveInput",
    "InconsistentPair",
    "InputTooLarge",
    "InvalidDiscriminant",
    "MismatchedDiscriminant",
    "NotNegativeDiscriminant",
    "NotPositiveDefinite",
    "NotReduced",
    "ParseError",
    "PrecisionExhausted",
    "QuadElement",
    "QuadLattice",
    "SingK3Error",
    "SurfaceClass",
    "TauPair",
    "WeierstrassModel",
    "analyze",
    "class_group",
    "class_number",
    "class_polynomial",
    "classes_per_genus",
    "compose",
    "distinct_fields",
    "fundamental_data",
    "genus_characters",
    "genus_of_transcendental_lattice",
    "genus_partition",
    "homothety_equal",
    "inose_pencil",
    "is_one_class_per_genus",
    "is_two_torsion",
    "j_of_form",
    "kummer_equation",
    "kummer_reduction",
    "lattice_from_form",
    "lem_bounds_applies",
    "minimal_form",
    "multiply",
    "power",
    "principal_form",
    "reduced_primitive_forms",
    "scan_one_class_per_genus",
    "shioda_mitani_check",
    "sm_factors",
    "surface_class",
    "tau_from_form",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
