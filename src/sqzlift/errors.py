"""Exception hierarchy shared by all modules."""


class SqzliftError(Exception):
    """Base class for all errors raised by this package."""


# -- ring / tower construction -------------------------------------------

class NonPrime(SqzliftError):
    pass


class IJNonzero(SqzliftError):
    pass


class NotLocal(SqzliftError):
    pass


class NotSurjective(SqzliftError):
    pass


class TargetMismatch(SqzliftError):
    pass


class CharMismatch(SqzliftError):
    pass


# -- algebra construction ------------------------------------------------

class NotAssociative(SqzliftError):
    pass


class NotUnital(SqzliftError):
    pass


class BadDimensions(SqzliftError):
    pass


class NotInKernel(SqzliftError):
    pass


# -- complexes -----------------------------------------------------------

class ShapeMismatch(SqzliftError):
    pass


class LevelMismatch(SqzliftError):
    pass


# -- cohomology / obstruction --------------------------------------------

class NotACocycle(SqzliftError):
    pass


class NotADifferential(SqzliftError):
    pass


class NotCochainMap(SqzliftError):
    pass


class NotAHomotopy(SqzliftError):
    pass


class Obstructed(SqzliftError):
    pass


# -- crude pipeline ------------------------------------------------------

class NotHomotopyEquivalence(SqzliftError):
    pass


class InternalObstruction(SqzliftError):
    """Fatal: a solve the theory guarantees solvable failed. Always a bug."""


# -- deformation functors ------------------------------------------------

class CheckFailed(SqzliftError):
    """Fatal: a Schlessinger-type condition failed on concrete data."""


class CapExceeded(SqzliftError):
    pass


# -- cli / documents -----------------------------------------------------

class ParseError(SqzliftError):
    pass


class SchemaMismatch(SqzliftError):
    pass


class ValidationError(SqzliftError):
    pass
