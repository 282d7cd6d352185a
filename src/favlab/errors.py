"""Exception hierarchy shared by all favlab modules."""


class FavlabError(Exception):
    """Base class for every error raised by this package."""


class EmptySystem(FavlabError):
    """A similarity system needs at least two maps."""


class MixedShapes(FavlabError):
    """A system's shape is neither "disc" nor "square".

    The name is kept because it is the error kind printed on stderr.
    """


class ContainmentViolation(FavlabError):
    """A first-level piece escapes the root region beyond tolerance."""


class UnknownPreset(FavlabError):
    """Preset name not recognized."""


class EnumerationCapExceeded(FavlabError):
    """L^n pieces would exceed the configured enumeration cap."""


class SpecInvalid(FavlabError):
    """Product split parameters (n, m, ell) are inconsistent."""


class DegenerateSeries(FavlabError):
    """Decay-model fit got a constant or nonpositive series."""


class DeltaOutOfRange(FavlabError):
    """Small-value cover check requires delta in (0, 1/3)."""


class PreconditionUnmet(FavlabError):
    """An operation's stated precondition fails (e.g. |f(0)| < 1)."""


class ContourThroughZero(FavlabError):
    """Zero counting could not place a contour away from zeros."""
