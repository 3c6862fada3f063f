"""Exception types shared across the package."""


class SingK3Error(Exception):
    """Base class for all errors raised by singk3."""


class InputError(SingK3Error):
    """The input is at fault, not the computation: the command line exits 2."""


class NotPositiveDefinite(InputError):
    """Form coefficients do not define a positive definite form."""


class NotNegativeDiscriminant(InputError):
    """Discriminant is >= 0 (only imaginary quadratic arithmetic is supported)."""


class InvalidDiscriminant(InputError):
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


class ParseError(InputError, ValueError):
    """Malformed textual input; a ValueError, as int() raises on bad text."""


class InputTooLarge(InputError):
    """Input exceeds the size a computation accepts (the message names the limit)."""
