"""Exception hierarchy shared across the package."""


class NihopermError(Exception):
    """Base class for all errors raised by this package."""


# field construction / arithmetic
class ReducibleModulus(NihopermError):
    """Supplied modulus polynomial factors over GF(2)."""


class DegreeMismatch(NihopermError):
    """Supplied modulus does not have the requested degree."""


class DivisionByZero(NihopermError):
    """Multiplicative inverse of zero requested."""


class NotDivisible(NihopermError):
    """Cube coset index requested in a field where 3 does not divide 2^n-1."""


class ZeroArgument(NihopermError):
    """Operation defined only for nonzero elements got zero."""


# quadratic tower
class GammaInSubfield(NihopermError):
    """The fixed parametrization element must lie outside the subfield."""


class ZNotInSubfield(NihopermError):
    """The parametrization argument must lie in the subfield."""


# low-degree equations
class NotInSubfield(NihopermError):
    """Coefficient expected in the subfield is not fixed by x -> x^(2^m)."""


class ZeroCoefficient(NihopermError):
    """Quartic no-root criterion requires a0*a1 != 0."""


class PreconditionViolated(NihopermError):
    """A check was invoked for a parameter range it does not cover."""


# pairs and families
class NonInvertibleDenominator(NihopermError):
    """Fractional pair entry whose denominator is not invertible mod 2^m+1."""


class ConditionViolated(NihopermError):
    """A family instance fails one of its stated hypotheses."""


# permutation engines / search
class FieldTooLarge(NihopermError):
    """Exhaustive verification refused beyond the desk-scale field bound."""


class BadFactorization(NihopermError):
    """Subgroup check invoked with d*s != 2^n-1."""


class RangeTooLarge(NihopermError):
    """Pair survey refused beyond the supported m bound."""
