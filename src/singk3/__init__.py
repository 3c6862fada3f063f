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

__version__ = "0.1.0"

# Every public name and the module that defines it, imported on first use: the
# class group verbs never load mpmath or the layers built on it, and a bare
# `import singk3` loads no submodule at all.
_LAZY = {
    "ClassGroup": "classgroup",
    "FundamentalData": "classgroup",
    "GenusPartition": "classgroup",
    "class_group": "classgroup",
    "class_number": "classgroup",
    "classes_per_genus": "classgroup",
    "distinct_fields": "classgroup",
    "fundamental_data": "classgroup",
    "genus_characters": "classgroup",
    "genus_partition": "classgroup",
    "is_one_class_per_genus": "classgroup",
    "is_two_torsion": "classgroup",
    "reduced_primitive_forms": "classgroup",
    "scan_one_class_per_genus": "classgroup",
    "FieldMismatch": "errors",
    "ImprimitiveInput": "errors",
    "InconsistentPair": "errors",
    "InputTooLarge": "errors",
    "InvalidDiscriminant": "errors",
    "MismatchedDiscriminant": "errors",
    "NotNegativeDiscriminant": "errors",
    "NotPositiveDefinite": "errors",
    "NotReduced": "errors",
    "ParseError": "errors",
    "PrecisionExhausted": "errors",
    "SingK3Error": "errors",
    "Form": "forms",
    "compose": "forms",
    "power": "forms",
    "principal_form": "forms",
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
    "multiply": "lattices",
    "shioda_mitani_check": "lattices",
    "sm_factors": "lattices",
    "tau_from_form": "lattices",
    "DEFAULT_PRECISION_BITS": "modular",
    "ClassPolynomial": "modular",
    "class_polynomial": "modular",
    "j_of_form": "modular",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
