"""Exception types raised by the fitting and compression routines."""


class FitError(Exception):
    """Base class for fit failures."""


class CollinearOrDegenerate(FitError):
    """Point set is collinear or otherwise too degenerate for a circle fit."""


class DegeneratePencil(FitError):
    """The anchored quadratic-form pencil has no usable eigenvector."""


class NoArcExists(FitError):
    """The two-anchor objective has no finite minimizing arc (data fits a line)."""


class NonConvergence(FitError):
    """Iterative geometric fit failed to converge within its iteration budget."""


class OutOfRange(FitError):
    """A result lies outside the float range."""
