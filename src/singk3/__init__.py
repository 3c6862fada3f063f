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
from .k3 import (
    BoundsReport,
    SurfaceClass,
    WeierstrassModel,
    analyze,
    genus_of_transcendental_lattice,
    inose_pencil,
    kummer_equation,
    kummer_reduction,
    lem_bounds_applies,
    surface_class,
)
from .lattices import (
    QuadElement,
    QuadLattice,
    TauPair,
    galois_orbit_classes,
    homothety_equal,
    lattice_from_form,
    minimal_form,
    multiply,
    shioda_mitani_check,
    sm_factors,
    tau_from_form,
)
from .modular import (
    DEFAULT_PRECISION_BITS,
    ClassPolynomial,
    class_polynomial,
    j_of_form,
)

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
    "galois_orbit_classes",
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
