"""Exception types shared across the package."""


class MirrorSobolError(ValueError):
    """Base class for all package-specific errors."""


class DomainViolationError(MirrorSobolError):
    """A point lies outside the declared input domain."""


class BandwidthTooLargeError(MirrorSobolError):
    """The scaled kernel support does not fit inside the domain from every point."""


class SingularDensityError(MirrorSobolError):
    """Density values at sample points fell below the safe division floor.

    Carries the offending row indices in ``indices``.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class DegenerateOutputError(MirrorSobolError):
    """The empirical output variance is zero; the Sobol' ratio is undefined."""


class InsufficientSampleError(MirrorSobolError):
    """Fewer sample rows than the estimator requires."""


class PilotTargetError(MirrorSobolError):
    """The pilot target of automatic bandwidth selection cannot be computed.

    Carries the 0-based input axis at fault in ``axis``.
    """

    def __init__(self, axis, message):
        super().__init__(message)
        self.axis = int(axis)
