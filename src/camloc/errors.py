"""Exception types shared across the package."""


class CamlocError(Exception):
    """Base class for all camloc errors."""


class UnknownCamera(CamlocError):
    pass


class UnknownKeypoint(CamlocError):
    pass


class InsufficientObservations(CamlocError):
    pass


class InsufficientKeypoints(CamlocError):
    pass


class SolverDiverged(CamlocError):
    pass


class NoEligibleCamera(CamlocError):
    pass


class UnknownNode(CamlocError):
    pass


class GaugeFree(CamlocError):
    pass


class InsufficientOverlap(CamlocError):
    pass


class EmptyWindow(CamlocError):
    pass


class EmptyInput(CamlocError):
    pass


class ConfigError(CamlocError):
    pass
