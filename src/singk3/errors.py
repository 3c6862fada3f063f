"""Exception types shared across the package."""


class SingK3Error(Exception):
    """Base class for all errors raised by singk3."""


class NotPositiveDefinite(SingK3Error):
    """Form coefficients do not define a positive definite form."""


class NotNegativeDiscriminant(SingK3Error):
    """Discriminant is >= 0 (only imaginary quadratic arithmetic is supported)."""


class InvalidDiscriminant(SingK3Error):
    """Integer is not a discriminant (d < 0 and d = 0, 1 mod 4)."""


class MismatchedDiscriminant(SingK3Error):
    """Binary operation on forms of different discriminants."""


class ImprimitiveInput(SingK3Error):
    """Operation requires a primitive form (gcd(a, b, c) = 1)."""


class NotReduced(SingK3Error):
    """Operation requires a reduced form."""


class FieldMismatch(SingK3Error):
    """Operation mixes lattices from different imaginary quadratic fields."""


class PrecisionExhausted(SingK3Error):
    """Certified rounding failed at the working precision."""


class InconsistentPair(SingK3Error):
    """(discriminant, degree of primitivity) pair is arithmetically impossible."""


class ParseError(SingK3Error):
    """Malformed textual input."""


class InputTooLarge(SingK3Error):
    """Input exceeds the size a computation accepts (the message names the limit)."""
